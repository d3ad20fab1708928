package regression

import (
	"math"
	"sort"
)

// Diagnostics summarizes a fitted model's residual behaviour — the checks
// a careful §VI analysis runs before trusting a regression: residual
// moments, the Durbin-Watson statistic (serial correlation matters because
// the power samples are a time series), and the largest standardized
// residuals with their observation indices.
type Diagnostics struct {
	// ResidualMean should be ≈0 for a fit with an intercept.
	ResidualMean float64
	// ResidualStdDev is the residual standard deviation.
	ResidualStdDev float64
	// DurbinWatson is in [0,4]: ≈2 means no serial correlation, <1 strong
	// positive correlation (e.g. unmodelled program phases).
	DurbinWatson float64
	// MaxAbsStandardized is the largest |residual|/σ.
	MaxAbsStandardized float64
	// WorstIndices lists the observations with the largest |residual|,
	// worst first (at most 10).
	WorstIndices []int
}

// Diagnose computes residual diagnostics of m over (x, y).
func Diagnose(m *Model, x [][]float64, y []float64) (Diagnostics, error) {
	if len(x) == 0 || len(x) != len(y) {
		return Diagnostics{}, ErrNoData
	}
	res := make([]float64, len(y))
	var sum float64
	for i, row := range x {
		res[i] = y[i] - m.Predict(row)
		sum += res[i]
	}
	n := float64(len(res))
	mean := sum / n
	var ss, dwNum, dwDen float64
	for i, r := range res {
		d := r - mean
		ss += d * d
		dwDen += r * r
		if i > 0 {
			step := r - res[i-1]
			dwNum += step * step
		}
	}
	sd := math.Sqrt(ss / n)

	idx := make([]int, len(res))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(res[idx[a]]) > math.Abs(res[idx[b]])
	})
	if len(idx) > 10 {
		idx = idx[:10]
	}
	maxStd := 0.0
	if sd > 0 {
		maxStd = math.Abs(res[idx[0]]) / sd
	}
	dw := 0.0
	if dwDen > 0 {
		dw = dwNum / dwDen
	}
	return Diagnostics{
		ResidualMean:       mean,
		ResidualStdDev:     sd,
		DurbinWatson:       dw,
		MaxAbsStandardized: maxStd,
		WorstIndices:       idx,
	}, nil
}
