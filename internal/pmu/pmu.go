// Package pmu models the Performance Monitoring Unit the paper samples to
// build its power regression (§VI-A2): it derives, for a workload running
// on a server, per-second rates of the six predictor variables —
// WorkingCoreNum, InstructionNum, L2CacheHit, L3CacheHit, MemoryReadTimes
// and MemoryWriteTimes — and samples them over an execution at a fixed
// interval (the paper uses 10 s) with realistic jitter.
//
// Instruction rates follow the workload's effective pipeline activity;
// cache-hit and DRAM rates come from running the workload's synthetic
// access pattern through the server's Table I cache hierarchy (see
// internal/cache), so the counters carry the same correlational structure
// hardware counters would: compute-bound programs are instruction-
// dominated, memory-bound programs miss- and DRAM-dominated.
package pmu

import (
	"math"

	"powerbench/internal/cache"
	"powerbench/internal/rng"
	"powerbench/internal/server"
	"powerbench/internal/workload"
)

// Features holds the six regression predictors as per-second rates
// (WorkingCores is a plain count).
type Features struct {
	WorkingCores float64
	Instructions float64
	L2Hits       float64
	L3Hits       float64
	MemReads     float64
	MemWrites    float64
}

// Vector returns the features in the paper's X1..X6 order.
func (f Features) Vector() []float64 {
	return []float64{f.WorkingCores, f.Instructions, f.L2Hits, f.L3Hits, f.MemReads, f.MemWrites}
}

// FeatureNames are the paper's predictor names, aligned with Vector.
var FeatureNames = []string{
	"WorkingCoreNum", "InstructionNum", "L2CacheHit",
	"L3CacheHit", "MemoryReadTimes", "MemoryWriteTimes",
}

// ipcFull is the instructions-per-cycle a fully active, superscalar-friendly
// core sustains (dense FP kernels with instruction mixes near 1
// instruction/flop).
const ipcFull = 2.0

// ipcOf derates instructions-per-cycle for latency-bound instruction mixes:
// codes with many architectural instructions per unit of useful work
// (transcendentals, pointer chasing, integer shuffling) retire fewer
// instructions per cycle. The square root keeps the derating gentle.
func ipcOf(instrPerFlop float64) float64 {
	if instrPerFlop < 1 {
		instrPerFlop = 1
	}
	return ipcFull / math.Sqrt(instrPerFlop)
}

// loadStoreFrac is the fraction of instructions that access memory.
const loadStoreFrac = 0.35

// quantizePow2 rounds up to the next power of two.
func quantizePow2(v uint64) uint64 {
	out := uint64(1)
	for out < v {
		out <<= 1
	}
	return out
}

// profileAccesses is the synthetic stream length used to measure a
// pattern's hit rates; long enough for steady state on megabyte-scale
// working sets, short enough to be cheap.
const profileAccesses = 200_000

// Rates derives the steady-state per-second feature rates of running m on
// spec.
func Rates(spec *server.Spec, m workload.Model) (Features, error) {
	if m.Processes == 0 {
		return Features{}, nil
	}
	load := spec.LoadOf(m)
	starve := spec.Starvation(load)
	// Power-relevant starvation is floored, but retired instructions track
	// true throughput; use the unfloored factor here.
	coreActivity := m.Char.Compute * starve * m.Utilization()
	instr := float64(m.Processes) * coreActivity * spec.FreqMHz * 1e6 * ipcOf(m.Char.InstrPerFlop)

	// Per-process working set. Cache-blocked codes (characteristic hot set
	// under 8 MiB: EP's batch buffers, HPL/DGEMM tiles, ssj warehouses)
	// keep their hot set regardless of problem size; sweeping codes touch
	// their whole slice of the resident problem, so their set grows with
	// class — which is what separates class B from class C counter
	// behaviour. Sets are quantized to powers of two so the memoized
	// profiles stay few.
	p := m.Char.Pattern
	const blockedThreshold = 8 << 20
	if m.MemoryBytes > 0 {
		share := m.MemoryBytes / uint64(m.Processes)
		if p.WorkingSetBytes >= blockedThreshold {
			p.WorkingSetBytes = share
		} else if share < p.WorkingSetBytes {
			p.WorkingSetBytes = share
		}
	}
	if p.WorkingSetBytes < 64<<10 {
		p.WorkingSetBytes = 64 << 10
	}
	if p.WorkingSetBytes > 1<<30 {
		p.WorkingSetBytes = 1 << 30
	}
	p.WorkingSetBytes = quantizePow2(p.WorkingSetBytes)
	prof, err := cache.Profile(p, profileAccesses, rng.DefaultSeed, spec.CacheHierarchy()...)
	if err != nil {
		return Features{}, err
	}

	accesses := instr * loadStoreFrac
	l1Miss := accesses * (1 - prof.L1HitRate)
	l2Hits := l1Miss * prof.L2HitRate
	l2Miss := l1Miss * (1 - prof.L2HitRate)
	var l3Hits, dram float64
	if spec.L3.SizeBytes != 0 {
		l3Hits = l2Miss * prof.L3HitRate
		dram = l2Miss * (1 - prof.L3HitRate)
	} else {
		dram = l2Miss
	}
	// DRAM rate cannot exceed the machine's bandwidth.
	if maxDram := spec.MemBWBytesPerSec / 64; dram > maxDram {
		dram = maxDram
	}
	wf := p.WriteFrac
	return Features{
		WorkingCores: float64(m.Processes) * m.Utilization(),
		Instructions: instr,
		L2Hits:       l2Hits,
		L3Hits:       l3Hits,
		MemReads:     dram * (1 - wf),
		MemWrites:    dram * wf,
	}, nil
}

// Sample is one PMU observation window.
type Sample struct {
	// T is the window start time in seconds.
	T float64
	// Interval is the window length in seconds.
	Interval float64
	// Counts holds the six counters accumulated over the window.
	Counts Features
}

// Sampler collects PMU samples at a fixed interval, applying multiplicative
// jitter so repeated windows of a steady workload differ the way hardware
// counters do (interrupt skew, OS noise).
type Sampler struct {
	// IntervalSec is the sampling window; the paper uses 10 s.
	IntervalSec float64
	// JitterFrac is the relative standard deviation of per-window noise.
	JitterFrac float64

	stream *rng.Stream
}

// NewSampler returns a sampler with the paper's 10 s interval and 3%
// counter jitter, seeded reproducibly.
func NewSampler(seed float64) *Sampler {
	return &Sampler{IntervalSec: 10, JitterFrac: 0.03, stream: rng.NewStream(seed, rng.A)}
}

// Clone returns a sampler with s's configuration but a fresh jitter stream
// seeded at seed, so concurrently executing runs never share generator
// state (the companion of Meter.Clone in the scheduler's per-run RNG
// contract).
func (s *Sampler) Clone(seed float64) *Sampler {
	c := *s
	c.stream = rng.NewStream(seed, rng.A)
	return &c
}

func (s *Sampler) jitter() float64 {
	if s.JitterFrac == 0 || s.stream == nil {
		return 1
	}
	// Uniform noise with the requested standard deviation: width √12·σ.
	u := s.stream.Next() - 0.5
	return 1 + u*3.4641*s.JitterFrac
}

// Collect samples the run of m on spec over its full duration. The final
// partial window, if any, is dropped — matching loggers that report only
// complete intervals.
func (s *Sampler) Collect(spec *server.Spec, m workload.Model) ([]Sample, error) {
	rates, err := Rates(spec, m)
	if err != nil {
		return nil, err
	}
	iv := s.IntervalSec
	if iv <= 0 {
		iv = 10
	}
	n := int(m.DurationSec / iv)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		c := Features{
			WorkingCores: rates.WorkingCores,
			Instructions: rates.Instructions * iv * s.jitter(),
			L2Hits:       rates.L2Hits * iv * s.jitter(),
			L3Hits:       rates.L3Hits * iv * s.jitter(),
			MemReads:     rates.MemReads * iv * s.jitter(),
			MemWrites:    rates.MemWrites * iv * s.jitter(),
		}
		out = append(out, Sample{T: float64(i) * iv, Interval: iv, Counts: c})
	}
	return out, nil
}
