package meter

import (
	"math"

	"powerbench/internal/stats"
)

// This file is the trace-hardening half of the meter: Validate inspects a
// log for the artifacts real acquisition chains produce (non-finite
// readings, duplicated timestamps, sampling gaps), and Repair rebuilds a
// clean uniform trace from a damaged one — drop invalid readings, collapse
// duplicates, clip spikes against a median/MAD band, and close gaps by
// linear interpolation onto the expected sampling grid. The analysis
// pipeline applies Repair per program window before the paper's
// trim-10%-and-average step, so corrupted sessions degrade gracefully
// instead of poisoning the tables.

// Validation summarizes the health of a trace.
type Validation struct {
	// Samples is the trace length inspected.
	Samples int
	// Invalid counts samples with NaN/Inf timestamp or reading.
	Invalid int
	// Duplicates counts samples closer than half the expected interval to
	// their predecessor (retransmitted or double-logged rows).
	Duplicates int
	// Gaps counts sample spacings wider than 1.5x the expected interval.
	Gaps int
	// Negative counts readings below zero (a WT210 never reports them).
	Negative int
}

// Clean reports whether the trace shows none of the artifacts.
func (v Validation) Clean() bool {
	return v.Invalid == 0 && v.Duplicates == 0 && v.Gaps == 0 && v.Negative == 0
}

// Validate inspects a time-ordered log against the expected sampling
// interval (≤ 0 selects the 1 Hz paper default).
func Validate(log []Sample, intervalSec float64) Validation {
	if intervalSec <= 0 {
		intervalSec = 1
	}
	v := Validation{Samples: len(log)}
	lastValid := math.Inf(-1)
	for _, s := range log {
		if !finite(s.T) || !finite(s.Watts) {
			v.Invalid++
			continue
		}
		if s.Watts < 0 {
			v.Negative++
		}
		if !math.IsInf(lastValid, -1) {
			switch dt := s.T - lastValid; {
			case dt < intervalSec/2:
				v.Duplicates++
			case dt > 1.5*intervalSec:
				v.Gaps++
			}
		}
		lastValid = s.T
	}
	return v
}

// RepairOpts configures Repair.
type RepairOpts struct {
	// Start and End bound the expected coverage window. When both are zero
	// the span of the surviving samples is used.
	Start, End float64
	// IntervalSec is the expected sampling grid (≤ 0 selects 1 Hz).
	IntervalSec float64
	// MADK is the spike threshold in robust standard deviations (median
	// absolute deviation × 1.4826); ≤ 0 selects 8. Readings farther than
	// MADK robust sigmas from the trace median are clipped to the median.
	MADK float64
	// MinSigma floors the robust sigma so that quantized or ultra-quiet
	// traces (MAD ≈ 0) do not clip legitimate noise; ≤ 0 selects 0.5 W.
	MinSigma float64
}

// RepairReport counts the repair actions taken; the pipeline threads it
// into the evaluation's quality annotations.
type RepairReport struct {
	// Invalid counts NaN/Inf samples dropped.
	Invalid int
	// Duplicates counts duplicate samples dropped.
	Duplicates int
	// SpikesClipped counts readings clipped to the trace median.
	SpikesClipped int
	// GapSamplesFilled counts grid points reconstructed by interpolation
	// (dropout gaps, removed samples, truncated tails).
	GapSamplesFilled int
}

// Total returns the number of repair actions.
func (r RepairReport) Total() int {
	return r.Invalid + r.Duplicates + r.SpikesClipped + r.GapSamplesFilled
}

// Repair rebuilds a damaged trace onto its expected uniform grid and
// reports what it fixed. The input must be time-ordered (as Merge and
// Window produce); it is not modified. An empty input repairs to nil.
//
// Every pass is linear in the window length (the medians are selections,
// the resample a merge walk); the sort-based original is kept in test code
// as the differential oracle.
//
// Repair is NOT applied on the clean path: the evaluation pipeline invokes
// it only when fault injection is active or validation finds artifacts, so
// pristine runs remain byte-identical to the unhardened pipeline.
func Repair(log []Sample, opts RepairOpts) ([]Sample, RepairReport) {
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
	// mid-trace excursions cannot. One scratch buffer serves both medians:
	// the watts first, then their absolute deviations.
	buf := make([]float64, len(clean))
	for i, s := range clean {
		buf[i] = s.Watts
	}
	med := stats.MedianInPlace(buf)
	for i, s := range clean {
		buf[i] = math.Abs(s.Watts - med)
	}
	sigma := 1.4826 * stats.MedianInPlace(buf)
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
	out := Resample(clean, start, end, interval)
	if filled := len(out) - len(clean); filled > 0 {
		rep.GapSamplesFilled = filled
	}
	return out, rep
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
