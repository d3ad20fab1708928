package meter

import (
	"math"
	"sort"
)

// This file keeps the sort-based trace repair as the differential oracle
// for the linear-time Repair and Resample: referenceRepair is the original
// body, taking two full sorts per median and one binary search per grid
// point. It lives in test code only, so the shipping binary carries one
// implementation.

// referenceRepair is Repair as it was before the linear-time passes.
func referenceRepair(log []Sample, opts RepairOpts) ([]Sample, RepairReport) {
	var rep RepairReport
	interval := opts.IntervalSec
	if interval <= 0 {
		interval = 1
	}
	madk := opts.MADK
	if madk <= 0 {
		madk = 8
	}
	minSigma := opts.MinSigma
	if minSigma <= 0 {
		minSigma = 0.5
	}

	// Pass 1: drop non-finite samples and duplicate timestamps.
	clean := make([]Sample, 0, len(log))
	for _, s := range log {
		if !finite(s.T) || !finite(s.Watts) {
			rep.Invalid++
			continue
		}
		if len(clean) > 0 && s.T-clean[len(clean)-1].T < interval/2 {
			rep.Duplicates++
			continue
		}
		clean = append(clean, s)
	}
	if len(clean) == 0 {
		return nil, rep
	}

	// Pass 2: clip spikes against the median/MAD band. The trim step drops
	// the ramp transients positionally, so clipping a ramp sample to the
	// median never reaches the reported average; what matters is that
	// mid-trace excursions cannot.
	watts := make([]float64, len(clean))
	for i, s := range clean {
		watts[i] = s.Watts
	}
	med := referenceMedianOf(watts)
	dev := make([]float64, len(watts))
	for i, w := range watts {
		dev[i] = math.Abs(w - med)
	}
	sigma := 1.4826 * referenceMedianOf(dev)
	if sigma < minSigma {
		sigma = minSigma
	}
	for i := range clean {
		if math.Abs(clean[i].Watts-med) > madk*sigma {
			clean[i].Watts = med
			rep.SpikesClipped++
		}
	}

	// Pass 3: reconstruct the expected uniform grid, interpolating across
	// gaps and extending truncated edges with the nearest reading.
	start, end := opts.Start, opts.End
	if start == 0 && end == 0 {
		start, end = clean[0].T, clean[len(clean)-1].T
	}
	out := referenceResample(clean, start, end, interval)
	if filled := len(out) - len(clean); filled > 0 {
		rep.GapSamplesFilled = filled
	}
	return out, rep
}

// referenceMedianOf returns the median of vs without modifying it.
func referenceMedianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	cp := append([]float64(nil), vs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// referenceResample reconstructs a uniformly spaced log from one with gaps
// (sample dropout) or jitter: for each grid point t = start + k·interval it
// linearly interpolates between the nearest surrounding samples. Points
// outside the source log's span take the nearest edge value. The input
// must be time-ordered (as Merge produces).
func referenceResample(log []Sample, start, end, interval float64) []Sample {
	if len(log) == 0 || interval <= 0 || end < start {
		return nil
	}
	var out []Sample
	for t := start; t <= end+1e-9; t += interval {
		out = append(out, Sample{T: t, Watts: referenceInterpolate(log, t)})
	}
	return out
}

// referenceInterpolate returns the linearly interpolated power at time t.
func referenceInterpolate(log []Sample, t float64) float64 {
	i := sort.Search(len(log), func(i int) bool { return log[i].T >= t })
	switch {
	case i == 0:
		return log[0].Watts
	case i == len(log):
		return log[len(log)-1].Watts
	}
	a, b := log[i-1], log[i]
	if b.T == a.T {
		return b.Watts
	}
	frac := (t - a.T) / (b.T - a.T)
	return a.Watts + frac*(b.Watts-a.Watts)
}
