package meter

// Resample reconstructs a uniformly spaced log from one with gaps (sample
// dropout) or jitter: for each grid point t = start + k·interval it
// linearly interpolates between the nearest surrounding samples. Points
// outside the source log's span take the nearest edge value. The input
// must be time-ordered (as Merge produces): the grid points ascend, so one
// cursor walks forward through the log and lands where a binary search for
// the first sample at or after t would, and the whole pass is linear.
func Resample(log []Sample, start, end, interval float64) []Sample {
	if len(log) == 0 || interval <= 0 || end < start {
		return nil
	}
	// Count the grid by the same accumulation that generates it: a
	// closed-form ⌊(end−start)/interval⌋+1 can disagree by one at the edge.
	n := 0
	for t := start; t <= end+1e-9; t += interval {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]Sample, 0, n)
	i := 0
	for t := start; t <= end+1e-9; t += interval {
		for i < len(log) && log[i].T < t {
			i++
		}
		out = append(out, Sample{T: t, Watts: interpolateAt(log, i, t)})
	}
	return out
}

// interpolateAt returns the linearly interpolated power at time t, where i
// is the index of the first sample with T ≥ t (len(log) when none is).
func interpolateAt(log []Sample, i int, t float64) float64 {
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
