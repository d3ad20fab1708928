package stats

import (
	"math/bits"
	"sort"
)

// MedianInPlace returns the median of xs in expected linear time, permuting
// xs as scratch. It returns 0 for an empty slice. The result is the number
// sort.Float64s-then-index gives, because an order statistic is a unique
// value whatever the permutation that exposes it: the middle element for
// odd n, the mean of the two middle elements for even n, with NaNs ordered
// first as sort.Float64s orders them. Only the sign of a zero median can
// differ, as it already does between two sorts of the same ±0 input.
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	// Move NaNs to the front, where sort.Float64s puts them, so that the
	// selection below compares ordered values only.
	nan := 0
	for i, x := range xs {
		if x != x {
			xs[nan], xs[i] = xs[i], xs[nan]
			nan++
		}
	}
	// The median reads sorted index (n-1)/2, and n/2 too when n is even.
	if (n-1)/2 < nan {
		return xs[0] // a NaN, and so is any mean taken with it
	}
	k := n / 2
	selectKth(xs[nan:], k-nan, 2*bits.Len(uint(n-nan)))
	hi := xs[k]
	if n%2 == 1 {
		return hi
	}
	// The lower middle value is the largest element left of k.
	lo := xs[nan]
	for _, x := range xs[nan+1 : k] {
		if x > lo {
			lo = x
		}
	}
	return (lo + hi) / 2
}

// selectKth permutes xs, which must hold no NaN, so that xs[k] is the value
// sort.Float64s would put there, every element before it is ≤ it and every
// element after it is ≥ it. It is an introselect: Hoare partitions around a
// median-of-3 pivot narrow the range holding k, and once budget rounds
// (2·log2(n) from MedianInPlace) are spent the remaining range is sorted
// outright, which bounds the cost on inputs built to defeat the pivot.
func selectKth(xs []float64, k, budget int) {
	lo, hi := 0, len(xs)-1
	for ; hi > lo; budget-- {
		if budget <= 0 {
			sort.Float64s(xs[lo : hi+1])
			return
		}
		// Order xs[lo] ≤ xs[mid] ≤ xs[hi]: the ends then stop both scans
		// without bounds tests, and the pivot is the median of the three.
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		// Hoare partition: on exit xs[lo..j] ≤ pivot ≤ xs[j+1..hi] with
		// lo ≤ j < hi, so each round strictly shrinks the range.
		i, j := lo-1, hi+1
		for {
			for i++; xs[i] < pivot; i++ {
			}
			for j--; pivot < xs[j]; j-- {
			}
			if i >= j {
				break
			}
			xs[i], xs[j] = xs[j], xs[i]
		}
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
}
