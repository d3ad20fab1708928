// Package comm provides a small in-process message-passing runtime in the
// style of MPI, built on goroutines and channels. The NPB kernels in this
// repository are written against it exactly as the reference codes are
// written against MPI: a World of P ranks runs one function per rank, and
// ranks communicate through point-to-point sends and the usual collectives
// (Barrier, Bcast, Allreduce, Alltoall).
//
// The runtime also counts the messages and bytes every rank sends, which
// the distributed HPL run reports as its communication volume: the paper
// observes that EP ("essentially no communication") and SP ("the most
// communication") are the two programs its regression model predicts
// worst, so communication volume must be observable even though it is not
// one of the six regression features.
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// message is one point-to-point transfer. Payloads are passed by reference;
// as in MPI, the receiver owns the buffer after delivery and senders must
// not reuse it.
type message struct {
	tag  int
	data any
}

// World is a communicator spanning Size ranks.
type World struct {
	size int
	// pipes[src][dst] carries messages from src to dst in order.
	pipes [][]chan message

	barrierMu  sync.Mutex
	barrierCnt int
	barrierCh  chan struct{}

	msgs  atomic.Int64
	bytes atomic.Int64
}

// NewWorld creates a communicator with size ranks. Channels are buffered so
// the regular NPB exchange patterns (shift, pairwise transpose) cannot
// deadlock on rendezvous.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("comm: invalid world size %d", size))
	}
	w := &World{size: size, barrierCh: make(chan struct{})}
	w.pipes = make([][]chan message, size)
	for i := range w.pipes {
		w.pipes[i] = make([]chan message, size)
		for j := range w.pipes[i] {
			w.pipes[i][j] = make(chan message, 16)
		}
	}
	return w
}

// Messages returns the total point-to-point message count so far.
func (w *World) Messages() int64 { return w.msgs.Load() }

// Bytes returns the total payload bytes moved point-to-point so far.
// Collectives are implemented on point-to-point sends, so their traffic is
// included.
func (w *World) Bytes() int64 { return w.bytes.Load() }

// Run executes body once per rank, each on its own goroutine, and waits for
// all of them. A panic on any rank is re-raised on the caller after all
// other ranks finish or deadlock is avoided by the panic's channel closure;
// kernels are expected not to panic in normal operation.
func (w *World) Run(body func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make(chan any, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			body(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	close(panics)
	if p, ok := <-panics; ok {
		panic(p)
	}
}

// Comm is one rank's endpoint into a World.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

func payloadBytes(data any) int64 {
	switch d := data.(type) {
	case []float64:
		return int64(8 * len(d))
	case []int:
		return int64(8 * len(d))
	case []complex128:
		return int64(16 * len(d))
	case float64, int, complex128:
		return 8
	case nil:
		return 0
	default:
		return 8 // control message of unknown shape
	}
}

// Send delivers data to rank dst with the given tag. It blocks only when
// the channel buffer between the pair is full.
func (c *Comm) Send(dst, tag int, data any) {
	if dst < 0 || dst >= c.world.size {
		panic(fmt.Sprintf("comm: send to invalid rank %d", dst))
	}
	c.world.msgs.Add(1)
	c.world.bytes.Add(payloadBytes(data))
	c.world.pipes[c.rank][dst] <- message{tag: tag, data: data}
}

// Recv receives the next message from rank src, which must carry the given
// tag. Messages between a pair of ranks are delivered in send order;
// mismatched tags indicate a program bug and panic, as MPI would abort.
func (c *Comm) Recv(src, tag int) any {
	if src < 0 || src >= c.world.size {
		panic(fmt.Sprintf("comm: recv from invalid rank %d", src))
	}
	m := <-c.world.pipes[src][c.rank]
	if m.tag != tag {
		panic(fmt.Sprintf("comm: rank %d expected tag %d from %d, got %d", c.rank, tag, src, m.tag))
	}
	return m.data
}

// RecvFloat64s is Recv with a []float64 type assertion.
func (c *Comm) RecvFloat64s(src, tag int) []float64 {
	return c.Recv(src, tag).([]float64)
}

// RecvInts is Recv with a []int type assertion.
func (c *Comm) RecvInts(src, tag int) []int {
	return c.Recv(src, tag).([]int)
}

// Barrier blocks until every rank in the world has entered it. It is a
// classic central barrier: the last rank to arrive closes the round's
// channel and opens the next one.
func (c *Comm) Barrier() {
	w := c.world
	w.barrierMu.Lock()
	w.barrierCnt++
	if w.barrierCnt == w.size {
		w.barrierCnt = 0
		close(w.barrierCh)
		w.barrierCh = make(chan struct{})
		w.barrierMu.Unlock()
		return
	}
	ch := w.barrierCh
	w.barrierMu.Unlock()
	<-ch
}

const (
	tagBcast = -101 - iota
	tagReduce
	tagAllreduce
	tagAlltoall
)

// Bcast distributes root's buf to every rank; non-root ranks return the
// received slice (their buf argument is ignored and may be nil).
func (c *Comm) Bcast(root int, buf []float64) []float64 {
	if c.world.size == 1 {
		return buf
	}
	if c.rank == root {
		for r := 0; r < c.world.size; r++ {
			if r == root {
				continue
			}
			c.Send(r, tagBcast, append([]float64(nil), buf...))
		}
		return buf
	}
	return c.RecvFloat64s(root, tagBcast)
}

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func applyOp(op Op, acc, in []float64) {
	switch op {
	case OpSum:
		for i := range acc {
			acc[i] += in[i]
		}
	case OpMax:
		for i := range acc {
			if in[i] > acc[i] {
				acc[i] = in[i]
			}
		}
	case OpMin:
		for i := range acc {
			if in[i] < acc[i] {
				acc[i] = in[i]
			}
		}
	}
}

// Allreduce combines each rank's contribution element-wise and returns the
// result on every rank (reduce-to-0 followed by broadcast).
func (c *Comm) Allreduce(contrib []float64, op Op) []float64 {
	if c.rank != 0 {
		c.Send(0, tagReduce, append([]float64(nil), contrib...))
		return c.RecvFloat64s(0, tagAllreduce)
	}
	acc := append([]float64(nil), contrib...)
	for r := 1; r < c.world.size; r++ {
		applyOp(op, acc, c.RecvFloat64s(r, tagReduce))
	}
	for r := 1; r < c.world.size; r++ {
		c.Send(r, tagAllreduce, append([]float64(nil), acc...))
	}
	return acc
}

// AllreduceScalar reduces a single float64 across all ranks.
func (c *Comm) AllreduceScalar(v float64, op Op) float64 {
	return c.Allreduce([]float64{v}, op)[0]
}

// Alltoall performs a complete exchange: rank i sends parts[j] to rank j and
// receives rank j's parts[i], returning the received slices indexed by
// source rank. This is the backbone of the FT transpose and the IS key
// redistribution.
func (c *Comm) Alltoall(parts [][]float64) [][]float64 {
	p := c.world.size
	if len(parts) != p {
		panic(fmt.Sprintf("comm: Alltoall needs %d parts, got %d", p, len(parts)))
	}
	out := make([][]float64, p)
	out[c.rank] = parts[c.rank]
	// Exchange in p-1 rounds using the XOR/shift schedule to avoid hot spots.
	for round := 1; round < p; round++ {
		dst := (c.rank + round) % p
		src := (c.rank - round + p) % p
		c.Send(dst, tagAlltoall-round, append([]float64(nil), parts[dst]...))
		out[src] = c.RecvFloat64s(src, tagAlltoall-round)
	}
	return out
}

// AlltoallInts is Alltoall for integer payloads (IS keys).
func (c *Comm) AlltoallInts(parts [][]int) [][]int {
	p := c.world.size
	if len(parts) != p {
		panic(fmt.Sprintf("comm: AlltoallInts needs %d parts, got %d", p, len(parts)))
	}
	out := make([][]int, p)
	out[c.rank] = parts[c.rank]
	for round := 1; round < p; round++ {
		dst := (c.rank + round) % p
		src := (c.rank - round + p) % p
		c.Send(dst, tagAlltoall-round, append([]int(nil), parts[dst]...))
		out[src] = c.RecvInts(src, tagAlltoall-round)
	}
	return out
}
