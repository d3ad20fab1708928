package comm

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

// Property: Allreduce(OpSum) equals the serial sum of the contributions,
// for any world size and payload.
func TestPropertyAllreduceSumMatchesSerial(t *testing.T) {
	f := func(sizeRaw uint8, seed int64) bool {
		size := int(sizeRaw%6) + 1
		width := int(seed%7+7) % 7
		if width < 1 {
			width = 1
		}
		contribs := make([][]float64, size)
		want := make([]float64, width)
		v := float64(seed%97) / 7
		for r := range contribs {
			contribs[r] = make([]float64, width)
			for j := range contribs[r] {
				v = math.Mod(v*1.7+float64(r+j)+0.3, 13)
				contribs[r][j] = v
				want[j] += v
			}
		}
		results := make([][]float64, size)
		w := NewWorld(size)
		w.Run(func(c *Comm) {
			results[c.Rank()] = c.Allreduce(contribs[c.Rank()], OpSum)
		})
		for _, res := range results {
			for j := range want {
				if math.Abs(res[j]-want[j]) > 1e-9*(1+math.Abs(want[j])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Alltoall conserves the multiset of payload values (it is a
// global permutation of block ownership).
func TestPropertyAlltoallConserves(t *testing.T) {
	f := func(sizeRaw uint8, seed int64) bool {
		size := int(sizeRaw%5) + 1
		sent := make([]float64, 0, size*size)
		parts := make([][][]float64, size)
		v := float64(seed % 31)
		for r := 0; r < size; r++ {
			parts[r] = make([][]float64, size)
			for d := 0; d < size; d++ {
				v = math.Mod(v*1.3+1, 17)
				parts[r][d] = []float64{v}
				sent = append(sent, v)
			}
		}
		received := make([][]float64, size)
		w := NewWorld(size)
		w.Run(func(c *Comm) {
			got := c.Alltoall(parts[c.Rank()])
			var flat []float64
			for _, g := range got {
				flat = append(flat, g...)
			}
			received[c.Rank()] = flat
		})
		var all []float64
		for _, r := range received {
			all = append(all, r...)
		}
		if len(all) != len(sent) {
			return false
		}
		sort.Float64s(all)
		sort.Float64s(sent)
		for i := range all {
			if all[i] != sent[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: every byte accounted by the runtime is non-negative and
// message counts only grow.
func TestPropertyTrafficMonotone(t *testing.T) {
	w := NewWorld(3)
	var prevMsgs, prevBytes int64
	for round := 0; round < 5; round++ {
		w.Run(func(c *Comm) {
			c.Allreduce(make([]float64, 8), OpSum)
		})
		if w.Messages() < prevMsgs || w.Bytes() < prevBytes {
			t.Fatal("traffic counters went backwards")
		}
		prevMsgs, prevBytes = w.Messages(), w.Bytes()
	}
}
