package cache

import (
	"slices"

	"powerbench/internal/rng"
)

// Pattern is a synthetic memory-access profile characterizing a workload:
// a mixture of sequential streaming through a working set and uniform
// random accesses within it, with a given store fraction. The NPB/HPCC
// workload models each carry a Pattern whose parameters reflect the
// kernel's real locality (EP: tiny working set; STREAM: pure streaming over
// a huge set; RandomAccess: uniform random over a huge set; CG: sparse
// gather over a mid-size set; …).
type Pattern struct {
	// WorkingSetBytes is the span of addresses touched.
	WorkingSetBytes uint64
	// SequentialFrac in [0,1] is the fraction of accesses that continue a
	// sequential stream; the rest jump uniformly at random within the set.
	SequentialFrac float64
	// StrideBytes is the step of the sequential stream (usually 8 for
	// float64 streaming; larger strides defeat spatial locality).
	StrideBytes uint64
	// WriteFrac in [0,1] is the fraction of accesses that are stores.
	WriteFrac float64
}

// Generate issues n accesses of the pattern into h, using stream s for the
// random components. It returns the number of writes issued.
func (p Pattern) Generate(n int, s *rng.Stream, h *Hierarchy) int {
	ws := p.WorkingSetBytes
	if ws == 0 {
		ws = 64
	}
	stride := p.StrideBytes
	if stride == 0 {
		stride = 8
	}
	// Start the sequential stream at a random stride-aligned position so
	// successive Generate calls (e.g. Profile's warm-up and measured
	// passes) walk fresh regions of a large working set instead of
	// re-walking the same prefix.
	cursor := s.Uint64n(ws/stride+1) * stride % ws
	writes := 0
	for i := 0; i < n; i++ {
		var addr uint64
		if s.Next() < p.SequentialFrac {
			cursor = (cursor + stride) % ws
			addr = cursor
		} else {
			addr = s.Uint64n(ws)
			cursor = addr
		}
		write := s.Next() < p.WriteFrac
		if write {
			writes++
		}
		h.Access(addr, write)
	}
	return writes
}

// ProfileResult summarizes how a pattern behaves on a hierarchy.
type ProfileResult struct {
	L1HitRate  float64
	L2HitRate  float64 // of accesses reaching L2
	L3HitRate  float64 // of accesses reaching L3 (0 when absent)
	MemPerAcc  float64 // DRAM accesses per issued access
	WriteShare float64
}

// Profile runs n accesses of the pattern through a fresh copy of the given
// hierarchy configuration and reports the observed steady-state rates: a
// warm-up pass of equal length runs first and only the second pass is
// measured, so cold-start compulsory misses do not distort the rates. The
// PMU uses these rates to scale per-second counter streams without
// simulating every access of an hours-long run.
//
// Profiles are served by the batched steady-state profiler (see profile.go)
// and memoized process-wide; both the fast path and the memo are exact —
// the result is bit-identical to ProfileReference for every input.
func Profile(p Pattern, n int, seed float64, cfgs ...Config) (ProfileResult, error) {
	compute := ProfileUncached
	reference := !fastProfileEnabled.Load()
	if reference {
		compute = ProfileReference
	}
	key, memo := memoKey(p, n, seed, cfgs, reference)
	if memo {
		if v, ok := profileMemo.Load(key); ok {
			return v.(ProfileResult), nil
		}
	}
	// The profilers keep their configs; computing on a copy lets a caller's
	// hierarchy stay on its stack when the memo answers.
	res, err := compute(p, n, seed, slices.Clone(cfgs)...)
	if memo && err == nil {
		profileMemo.Store(key, res)
	}
	return res, err
}

// ProfileReference is the original per-access computation of Profile: the
// pattern driven through a full Hierarchy one access at a time. It is the
// oracle the batched profiler is tested against, and what Profile runs when
// the fast path is disabled via SetFastProfile(false).
func ProfileReference(p Pattern, n int, seed float64, cfgs ...Config) (ProfileResult, error) {
	h, err := NewHierarchy(cfgs...)
	if err != nil {
		return ProfileResult{}, err
	}
	s := rng.NewStream(seed, rng.A)
	// Warm up before measuring. When the working set is small enough that n
	// accesses can plausibly cover it, run several passes so residency
	// converges (random-start passes leave coverage gaps); for sets far
	// beyond any cache a single pass suffices — steady state is
	// compulsory-miss dominated regardless of coverage.
	warm := n
	if int(p.WorkingSetBytes/64) <= n {
		warm = 4 * n
	}
	p.Generate(warm, s, h)
	h.ResetStats()
	writes := p.Generate(n, s, h)
	res := ProfileResult{
		L1HitRate:  h.LevelStats(1).HitRate(),
		MemPerAcc:  float64(h.MemReads+h.MemWrites) / float64(n),
		WriteShare: float64(writes) / float64(n),
	}
	if h.Levels() >= 2 {
		res.L2HitRate = h.LevelStats(2).HitRate()
	}
	if h.Levels() >= 3 {
		res.L3HitRate = h.LevelStats(3).HitRate()
	}
	return res, nil
}
