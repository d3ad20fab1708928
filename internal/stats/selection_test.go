package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortedMedian is the definition MedianInPlace must reproduce: sort a copy,
// then take the middle element or the mean of the two middle elements.
func sortedMedian(xs []float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	n := len(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// sameFloat is bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// TestMedianInPlaceMatchesSort compares the selection median with the
// sort-based definition, bit for bit, for every n from 1 to 300 over the
// shapes that stress a partition: ties, all-equal input, ascending and
// descending runs, organ pipes, and non-finite values.
func TestMedianInPlaceMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		gen  func(i, n int) float64
	}{
		{"random", func(i, n int) float64 { return r.NormFloat64()*40 + 250 }},
		{"ties", func(i, n int) float64 { return float64(r.Intn(4)) * 0.5 }},
		{"all-equal", func(i, n int) float64 { return 174.8 }},
		{"ascending", func(i, n int) float64 { return float64(i) }},
		{"descending", func(i, n int) float64 { return float64(n - i) }},
		{"organ-pipe", func(i, n int) float64 { return float64(min(i, n-i)) }},
		{"sawtooth", func(i, n int) float64 { return float64(i % 7) }},
		{"infinities", func(i, n int) float64 {
			switch i % 5 {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return float64(r.Intn(10))
		}},
		{"nans", func(i, n int) float64 {
			if r.Intn(3) == 0 {
				return math.NaN()
			}
			return r.Float64()
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for n := 1; n <= 300; n++ {
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = sh.gen(i, n)
				}
				want := sortedMedian(xs)
				perm := append([]float64(nil), xs...)
				if got := MedianInPlace(perm); !sameFloat(got, want) {
					t.Fatalf("n=%d: MedianInPlace = %v, sort gives %v (input %v)", n, got, want, xs)
				}
				// The scratch use only permutes: the multiset survives.
				sort.Float64s(perm)
				ref := append([]float64(nil), xs...)
				sort.Float64s(ref)
				for i := range ref {
					if !sameFloat(perm[i], ref[i]) {
						t.Fatalf("n=%d: MedianInPlace lost or changed elements", n)
					}
				}
			}
		})
	}
}

// TestSelectKthSortFallback spends the round budget at every depth, so the
// sort.Float64s fallback finishes ranges the partitions left open.
func TestSelectKthSortFallback(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	xs := make([]float64, 257)
	for budget := 0; budget <= 4; budget++ {
		for k := 0; k < len(xs); k += 16 {
			for i := range xs {
				xs[i] = float64(r.Intn(50))
			}
			ref := append([]float64(nil), xs...)
			sort.Float64s(ref)
			selectKth(xs, k, budget)
			if xs[k] != ref[k] {
				t.Fatalf("budget %d, k %d: xs[k] = %v, want %v", budget, k, xs[k], ref[k])
			}
			for i, x := range xs {
				if i < k && x > xs[k] || i > k && x < xs[k] {
					t.Fatalf("budget %d, k %d: xs[%d] = %v on the wrong side of %v", budget, k, i, x, xs[k])
				}
			}
		}
	}
}

func TestMedianInPlaceEmpty(t *testing.T) {
	if got := MedianInPlace(nil); got != 0 {
		t.Errorf("MedianInPlace(nil) = %v, want 0", got)
	}
}
