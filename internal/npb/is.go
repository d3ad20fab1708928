package npb

import (
	"fmt"
	"sort"

	"powerbench/internal/comm"
	"powerbench/internal/rng"
)

// isClassSize gives (total keys, key range) per class: N = 2^n keys drawn
// from [0, 2^b).
var isClassSize = map[Class]struct{ logN, logB int }{
	ClassS: {16, 11}, ClassW: {20, 16}, ClassA: {23, 19}, ClassB: {25, 21}, ClassC: {27, 23},
}

// ISResult reports a native IS run.
type ISResult struct {
	Class    Class
	Procs    int
	Keys     int
	Verified bool
}

// RunIS executes the Integer Sort kernel natively: each rank generates its
// share of the global key sequence (NPB key generation: each key is the
// mean of four consecutive randlc values scaled to the key range), assigns
// keys to p range buckets, exchanges buckets all-to-all, and counting-sorts
// its received range. Verification checks the global sort order across
// rank boundaries, per-rank local order, and conservation of the key
// population — the same properties NPB's full/partial verification
// establishes.
func RunIS(c Class, procs int) (ISResult, error) {
	size, ok := isClassSize[c]
	if !ok {
		return ISResult{}, fmt.Errorf("npb: IS has no class %s", c)
	}
	n := 1 << uint(size.logN)
	sorted, err := runISInternal(c, procs)
	if err != nil {
		return ISResult{}, err
	}

	// Global verification: per-rank order, cross-rank order, conservation.
	total := 0
	ok = true
	prevMax := -1
	for _, keys := range sorted {
		total += len(keys)
		if !sort.IntsAreSorted(keys) {
			ok = false
		}
		if len(keys) > 0 {
			if keys[0] < prevMax {
				ok = false
			}
			prevMax = keys[len(keys)-1]
		}
	}
	if total != n {
		ok = false
	}
	// Partial verification against the class goldens, where known.
	if golden, known := isGolden[c]; known && ok {
		probes, err := isProbesFrom(sorted, n)
		if err != nil || probes != golden {
			ok = false
		}
	}
	return ISResult{Class: c, Procs: procs, Keys: n, Verified: ok}, nil
}

// runISInternal performs the distributed sort, returning the per-rank
// sorted key arrays in rank order (their concatenation is the globally
// sorted sequence).
func runISInternal(c Class, procs int) ([][]int, error) {
	size, ok := isClassSize[c]
	if !ok {
		return nil, fmt.Errorf("npb: IS has no class %s", c)
	}
	if !ValidProcs(IS, procs) {
		return nil, fmt.Errorf("%w: is with %d", ErrBadProcs, procs)
	}
	n := 1 << uint(size.logN)
	maxKey := 1 << uint(size.logB)
	perRank := n / procs

	outs := make([][]int, procs)

	w := comm.NewWorld(procs)
	w.Run(func(cm *comm.Comm) {
		rank := cm.Rank()
		// Generate this rank's keys from the global stream position.
		s := rng.NewStream(rng.DefaultSeed, rng.A)
		s.SkipAhead(int64(rank) * int64(perRank) * 4)
		keys := make([]int, perRank)
		for i := range keys {
			v := (s.Next() + s.Next() + s.Next() + s.Next()) / 4
			keys[i] = int(v * float64(maxKey))
			if keys[i] >= maxKey {
				keys[i] = maxKey - 1
			}
		}
		// Bucket by destination rank (equal key sub-ranges).
		per := (maxKey + procs - 1) / procs
		parts := make([][]int, procs)
		for _, k := range keys {
			d := k / per
			if d >= procs {
				d = procs - 1
			}
			parts[d] = append(parts[d], k)
		}
		recv := cm.AlltoallInts(parts)
		var mine []int
		for _, r := range recv {
			mine = append(mine, r...)
		}
		// Counting sort within this rank's range.
		lo := rank * per
		counts := make([]int, per)
		for _, k := range mine {
			counts[k-lo]++
		}
		sorted := mine[:0]
		for v, cnt := range counts {
			for j := 0; j < cnt; j++ {
				sorted = append(sorted, lo+v)
			}
		}
		outs[rank] = sorted
		cm.Barrier()
	})
	return outs, nil
}

// isProbePositions are the NPB-style partial-verification probe sites: five
// global positions of the sorted key array, spread across the range.
func isProbePositions(n int) [5]int {
	return [5]int{n / 17, n / 5, n / 2, 4 * n / 5, n - 2}
}

// isGolden holds this implementation's partial-verification constants per
// class (playing the role of NPB's published rank checks): the sorted
// array's values at the five probe positions, identical for every process
// count. Classes beyond W are too large to run natively in tests.
var isGolden = map[Class][5]int{
	ClassS: {558, 766, 1022, 1281, 1957},
	ClassW: {17847, 24537, 32740, 40970, 64213},
}

// isProbesFrom extracts the probe values from per-rank sorted output.
func isProbesFrom(sorted [][]int, n int) ([5]int, error) {
	var out [5]int
	pos := isProbePositions(n)
	idx := 0
	seen := 0
	for _, rankKeys := range sorted {
		for _, k := range rankKeys {
			for idx < 5 && seen == pos[idx] {
				out[idx] = k
				idx++
			}
			seen++
		}
	}
	if idx != 5 {
		return out, fmt.Errorf("npb: probe positions not covered (%d of 5)", idx)
	}
	return out, nil
}
