package comm

import (
	"sync/atomic"
	"testing"
)

func TestWorldSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		w := NewWorld(n)
		var ran atomic.Int64
		w.Run(func(c *Comm) {
			if c.Size() != n {
				t.Errorf("comm size = %d", c.Size())
			}
			ran.Add(1)
		})
		if ran.Load() != int64(n) {
			t.Errorf("ran %d ranks, want %d", ran.Load(), n)
		}
	}
}

func TestNewWorldPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(0) should panic")
		}
	}()
	NewWorld(0)
}

func TestSendRecvOrder(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			a := c.RecvFloat64s(0, 1)
			b := c.RecvFloat64s(0, 2)
			if a[0] != 1 || b[0] != 2 {
				t.Errorf("out of order: %v %v", a, b)
			}
		}
	})
}

// Pairwise exchanges send first and then receive: the buffered pipes make
// the symmetric pattern deadlock-free.
func TestSendRecvExchange(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		partner := c.Rank() ^ 1
		c.Send(partner, 7, []float64{float64(c.Rank())})
		if got := c.RecvFloat64s(partner, 7); got[0] != float64(partner) {
			t.Errorf("rank %d got %v", c.Rank(), got)
		}
	})
}

func TestRecvTagMismatchPanics(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		if recover() == nil {
			t.Error("tag mismatch should propagate as panic")
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
		} else {
			c.Recv(0, 99)
		}
	})
}

func TestBarrier(t *testing.T) {
	const n = 8
	w := NewWorld(n)
	var phase atomic.Int64
	w.Run(func(c *Comm) {
		for iter := 0; iter < 50; iter++ {
			phase.Add(1)
			c.Barrier()
			// After the barrier every rank must observe all n increments
			// of this round.
			if got := phase.Load(); got < int64((iter+1)*n) {
				t.Errorf("barrier leaked: phase=%d at iter %d", got, iter)
			}
			c.Barrier()
		}
	})
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 5} {
		w := NewWorld(n)
		w.Run(func(c *Comm) {
			var buf []float64
			if c.Rank() == 0 {
				buf = []float64{3.14, 2.71}
			}
			got := c.Bcast(0, buf)
			if len(got) != 2 || got[0] != 3.14 || got[1] != 2.71 {
				t.Errorf("rank %d bcast got %v", c.Rank(), got)
			}
		})
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		var buf []float64
		if c.Rank() == 2 {
			buf = []float64{9}
		}
		got := c.Bcast(2, buf)
		if got[0] != 9 {
			t.Errorf("rank %d got %v", c.Rank(), got)
		}
	})
}

func TestReduceSum(t *testing.T) {
	const n = 6
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		res := c.Allreduce([]float64{float64(c.Rank()), 1}, OpSum)
		if res[0] != float64(n*(n-1)/2) || res[1] != n {
			t.Errorf("rank %d: allreduce sum = %v", c.Rank(), res)
		}
	})
}

func TestAllreduceMaxMin(t *testing.T) {
	const n = 5
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		mx := c.Allreduce([]float64{float64(c.Rank())}, OpMax)
		if mx[0] != n-1 {
			t.Errorf("allreduce max = %v", mx)
		}
		mn := c.Allreduce([]float64{float64(c.Rank())}, OpMin)
		if mn[0] != 0 {
			t.Errorf("allreduce min = %v", mn)
		}
		s := c.AllreduceScalar(1, OpSum)
		if s != n {
			t.Errorf("allreduce scalar = %v", s)
		}
	})
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		w := NewWorld(n)
		w.Run(func(c *Comm) {
			parts := make([][]float64, n)
			for j := range parts {
				parts[j] = []float64{float64(c.Rank()*100 + j)}
			}
			got := c.Alltoall(parts)
			for src := range got {
				want := float64(src*100 + c.Rank())
				if got[src][0] != want {
					t.Errorf("n=%d rank %d from %d: got %v want %v", n, c.Rank(), src, got[src], want)
				}
			}
		})
	}
}

func TestAlltoallInts(t *testing.T) {
	const n = 3
	w := NewWorld(n)
	w.Run(func(c *Comm) {
		parts := make([][]int, n)
		for j := range parts {
			parts[j] = []int{c.Rank()*10 + j}
		}
		got := c.AlltoallInts(parts)
		for src := range got {
			if got[src][0] != src*10+c.Rank() {
				t.Errorf("rank %d from %d: %v", c.Rank(), src, got[src])
			}
		}
	})
}

func TestTrafficAccounting(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 100))
		} else {
			c.Recv(0, 0)
		}
	})
	if w.Messages() != 1 {
		t.Errorf("messages = %d", w.Messages())
	}
	if w.Bytes() != 800 {
		t.Errorf("bytes = %d", w.Bytes())
	}
}

func TestTrafficIncludesCollectives(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		c.Allreduce([]float64{1}, OpSum)
	})
	if w.Messages() == 0 || w.Bytes() == 0 {
		t.Error("collectives should generate accounted traffic")
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	w := NewWorld(1)
	defer func() {
		if recover() == nil {
			t.Error("panic should propagate")
		}
	}()
	w.Run(func(c *Comm) { panic("boom") })
}

func BenchmarkAllreduce8(b *testing.B) {
	w := NewWorld(8)
	buf := make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			c.Allreduce(buf, OpSum)
		})
	}
}

func BenchmarkAlltoall4(b *testing.B) {
	w := NewWorld(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(c *Comm) {
			parts := make([][]float64, 4)
			for j := range parts {
				parts[j] = make([]float64, 256)
			}
			c.Alltoall(parts)
		})
	}
}
