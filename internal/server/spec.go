// Package server models the systems under test: the three HPC servers of
// the paper's Table I (Xeon-E5462, Opteron-8347, Xeon-4870), their cache
// and memory geometry, and — because no physical power meter is available
// to this reproduction — a calibrated power model fitted by least squares
// to the paper's own published operating points (Tables IV–VI). The fitted
// model maps any workload operating point (active cores, compute and
// vector-FP intensity, memory-bandwidth demand, memory footprint,
// communication intensity) to system watts.
package server

import (
	"fmt"
	"math"
	"sort"

	"powerbench/internal/cache"
)

// Spec describes one server.
type Spec struct {
	Name          string
	ProcessorType string
	Cores         int
	Chips         int
	FreqMHz       float64
	// GFLOPSPerCore is the theoretical per-core peak.
	GFLOPSPerCore float64
	MemoryBytes   uint64
	// MemBWBytesPerSec is the aggregate DRAM bandwidth of all chips.
	MemBWBytesPerSec float64
	// L1D, L2, L3 are the per-core *effective* cache shares used by the PMU
	// profiling hierarchy. L3.SizeBytes == 0 means no L3.
	L1D, L2, L3 cache.Config
	// IdleWatts is the measured no-load power (paper Tables IV–VI).
	IdleWatts float64
	// Coef holds the calibrated power-model coefficients; see power.go.
	Coef Coeffs

	// HPLFull / HPLHalf anchor the delivered HPL GFLOPS at full (Mf) and
	// half (Mh) memory as a function of process count; EP anchors the
	// delivered EP "GFLOPS" (NPB counts random-pair operations). All come
	// from the paper's Tables IV–VI.
	HPLFull, HPLHalf, EP AnchorCurve

	// SPECpowerScore is the paper-reported ssj_ops/W overall score used to
	// calibrate the ssj workload's throughput (§V-C3).
	SPECpowerScore float64

	// Table I descriptive fields (report only).
	PrimaryCache, SecondaryCache, TertiaryCache string
	MemoryDetails, PowerSupply, Disk            string
}

// PeakGFLOPS returns the theoretical peak of the whole server.
func (s *Spec) PeakGFLOPS() float64 { return float64(s.Cores) * s.GFLOPSPerCore }

// HalfCores returns the paper's "half CPU usage" process count.
func (s *Spec) HalfCores() int { return s.Cores / 2 }

// Validate sanity-checks the specification.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("server: empty name")
	}
	if s.Cores <= 0 || s.Chips <= 0 || s.Cores%s.Chips != 0 {
		return fmt.Errorf("server: %s has inconsistent cores/chips %d/%d", s.Name, s.Cores, s.Chips)
	}
	if s.GFLOPSPerCore <= 0 || s.FreqMHz <= 0 {
		return fmt.Errorf("server: %s has non-positive performance figures", s.Name)
	}
	if s.MemoryBytes == 0 || s.MemBWBytesPerSec <= 0 {
		return fmt.Errorf("server: %s has no memory configured", s.Name)
	}
	if s.IdleWatts <= 0 {
		return fmt.Errorf("server: %s has no idle power", s.Name)
	}
	if err := s.L1D.Validate(); err != nil {
		return err
	}
	if err := s.L2.Validate(); err != nil {
		return err
	}
	if s.L3.SizeBytes != 0 {
		if err := s.L3.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// CacheHierarchy returns the per-core cache configuration list (L1, L2 and,
// when present, L3) for PMU profiling.
func (s *Spec) CacheHierarchy() []cache.Config {
	if s.L3.SizeBytes != 0 {
		return []cache.Config{s.L1D, s.L2, s.L3}
	}
	return []cache.Config{s.L1D, s.L2}
}

// AnchorCurve interpolates a positive quantity between measured anchor
// points (x must be ≥ 1 process counts). Interpolation is piecewise linear
// in log-log space, which respects the roughly power-law scaling of
// delivered performance with core count; queries outside the anchor range
// extrapolate along the nearest segment.
type AnchorCurve []AnchorPoint

// AnchorPoint is one measured (process count, value) pair.
type AnchorPoint struct {
	N     float64
	Value float64
}

// Interp evaluates the curve at n.
func (c AnchorCurve) Interp(n float64) float64 {
	if len(c) == 0 {
		return 0
	}
	if n < 1 {
		n = 1
	}
	pts := append(AnchorCurve(nil), c...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].N < pts[j].N })
	if len(pts) == 1 {
		// Single anchor: assume linear scaling in n.
		return pts[0].Value * n / pts[0].N
	}
	// Locate the segment.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].N >= n })
	switch {
	case i == 0:
		i = 1
	case i == len(pts):
		i = len(pts) - 1
	}
	x0, y0 := math.Log(pts[i-1].N), math.Log(pts[i-1].Value)
	x1, y1 := math.Log(pts[i].N), math.Log(pts[i].Value)
	if x1 == x0 {
		return pts[i].Value
	}
	t := (math.Log(n) - x0) / (x1 - x0)
	return math.Exp(y0 + t*(y1-y0))
}
