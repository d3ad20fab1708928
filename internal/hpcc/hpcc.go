// Package hpcc models the HPC Challenge benchmark suite (Dongarra &
// Luszczek) — HPL, DGEMM, STREAM, PTRANS, RandomAccess (GUPS), FFT and the
// b_eff latency/bandwidth probe — as workload models for the
// power-regression training sweep of the paper's §VI ("Test scripts
// sequentially start the seven HPCC programs from single core to full
// cores").
package hpcc

import (
	"fmt"

	"powerbench/internal/server"
	"powerbench/internal/workload"
)

// Component identifies one of the seven HPCC programs.
type Component string

// The seven HPCC components.
const (
	HPL          Component = "hpl"
	DGEMM        Component = "dgemm"
	STREAM       Component = "stream"
	PTRANS       Component = "ptrans"
	RandomAccess Component = "randomaccess"
	FFT          Component = "fft"
	BEff         Component = "beff"
)

// Components lists all seven in the suite's canonical order.
var Components = []Component{HPL, DGEMM, STREAM, PTRANS, RandomAccess, FFT, BEff}

// CharOf returns the machine-facing characteristic of a component.
func CharOf(c Component) (workload.Characteristic, error) {
	switch c {
	case HPL:
		return workload.CharHPL, nil
	case DGEMM:
		return workload.CharDGEMM, nil
	case STREAM:
		return workload.CharSTREAM, nil
	case PTRANS:
		return workload.CharPTRANS, nil
	case RandomAccess:
		return workload.CharRandomAccess, nil
	case FFT:
		return workload.CharFFT, nil
	case BEff:
		return workload.CharBEff, nil
	}
	return workload.Characteristic{}, fmt.Errorf("hpcc: unknown component %q", c)
}

// trainingDurationSec is each component run's length in the sweep; with the
// paper's 10 s PMU windows, seven components × 22 windows × 40 core counts
// lands near the paper's 6,056 observations on the Xeon-4870.
const trainingDurationSec = 220

// footprintFrac is the fraction of machine memory the sweep sizes each
// component to (HPCC sizes problems to a fixed share of RAM).
var footprintFrac = map[Component]float64{
	HPL: 0.60, DGEMM: 0.20, STREAM: 0.50, PTRANS: 0.40,
	RandomAccess: 0.50, FFT: 0.40, BEff: 0.02,
}

// NewModel builds the workload model of one component at one process count.
func NewModel(spec *server.Spec, c Component, procs int) (workload.Model, error) {
	if procs < 1 || procs > spec.Cores {
		return workload.Model{}, fmt.Errorf("hpcc: %d processes outside 1..%d", procs, spec.Cores)
	}
	char, err := CharOf(c)
	if err != nil {
		return workload.Model{}, err
	}
	load := server.Load{
		Active: true, Cores: float64(procs),
		Compute: char.Compute, FPWidth: char.FPWidth,
		BandwidthPerCore: char.BandwidthPerCore, Comm: char.CommPerCore,
	}
	// Delivered rate: HPL uses the calibrated anchors; the others scale
	// peak by a per-component efficiency under true starvation.
	var gflops float64
	if c == HPL && len(spec.HPLFull) > 0 {
		gflops = spec.HPLHalf.Interp(float64(procs))
	} else {
		eff := map[Component]float64{
			HPL: 0.8, DGEMM: 0.85, STREAM: 0.08, PTRANS: 0.05,
			RandomAccess: 0.005, FFT: 0.10, BEff: 0.001,
		}[c]
		gflops = spec.GFLOPSPerCore * eff * float64(procs) * spec.Starvation(load)
	}
	return workload.Model{
		Name:        fmt.Sprintf("%s.%d", c, procs),
		Processes:   procs,
		DurationSec: trainingDurationSec,
		MemoryBytes: uint64(footprintFrac[c] * float64(spec.MemoryBytes)),
		GFLOPS:      gflops,
		Char:        char,
	}, nil
}

// TrainingModels returns the full §VI-A2 sweep: every component at every
// core count from one to all cores, in script order (core count outer,
// component inner).
func TrainingModels(spec *server.Spec) ([]workload.Model, error) {
	var out []workload.Model
	for n := 1; n <= spec.Cores; n++ {
		for _, c := range Components {
			m, err := NewModel(spec, c, n)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	return out, nil
}
