package jobs

import (
	"container/heap"
)

// fairQueue orders dispatch across campaigns with two axes:
//
//   - Fair share across clients: ready clients take turns in a
//     round-robin ring, so one tenant's 10k-point campaign interleaves
//     with — instead of starving — another tenant's 10-point one.
//   - Priority within a client: among one client's campaigns the highest
//     Priority drains first; ties resolve by submission order, so equal
//     priorities are FIFO.
//
// The queue hands out *campaigns* (the manager pops the campaign's next
// pending point under its own lock); a campaign stays enqueued until the
// manager reports it drained. All methods require external locking by the
// manager — the queue itself carries no mutex because every call site
// already holds the manager's.
type fairQueue struct {
	clients map[string]*clientQueue
	ring    []string // round-robin order over clients with ready work
	next    int      // ring cursor
	depth   int      // total queued campaign entries (gauge bookkeeping)
}

type clientQueue struct {
	name  string
	ready campaignHeap
}

func newFairQueue() *fairQueue {
	return &fairQueue{clients: make(map[string]*clientQueue)}
}

// push enqueues a campaign for its client. Pushing an already-queued
// campaign is the caller's bug; the manager only pushes on accept,
// recovery and requeue-after-failure.
func (q *fairQueue) push(c *campaign) {
	cq := q.clients[c.spec.Client]
	if cq == nil {
		cq = &clientQueue{name: c.spec.Client}
		q.clients[c.spec.Client] = cq
		q.ring = append(q.ring, c.spec.Client)
	}
	heap.Push(&cq.ready, c)
	q.depth++
}

// pop returns the next campaign to draw a point from, round-robining
// across clients and taking the highest-priority campaign within the
// chosen client. Returns nil when nothing is ready. The campaign is
// removed; the manager re-pushes it if it still has pending points after
// taking one.
func (q *fairQueue) pop() *campaign {
	for range q.ring {
		if len(q.ring) == 0 {
			return nil
		}
		q.next %= len(q.ring)
		name := q.ring[q.next]
		cq := q.clients[name]
		if cq == nil || cq.ready.Len() == 0 {
			// Client drained: drop it from the ring without advancing the
			// cursor (the next client slides into this slot).
			delete(q.clients, name)
			q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
			continue
		}
		q.next++
		q.depth--
		return heap.Pop(&cq.ready).(*campaign)
	}
	return nil
}

// remove drops a campaign from the queue (cancellation); it reports
// whether the campaign was queued.
func (q *fairQueue) remove(c *campaign) bool {
	cq := q.clients[c.spec.Client]
	if cq == nil {
		return false
	}
	for i, qc := range cq.ready {
		if qc == c {
			heap.Remove(&cq.ready, i)
			q.depth--
			return true
		}
	}
	return false
}

// campaignHeap orders by priority desc, then acceptance sequence asc.
type campaignHeap []*campaign

func (h campaignHeap) Len() int { return len(h) }
func (h campaignHeap) Less(i, j int) bool {
	if h[i].spec.Priority != h[j].spec.Priority {
		return h[i].spec.Priority > h[j].spec.Priority
	}
	return h[i].seq < h[j].seq
}
func (h campaignHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *campaignHeap) Push(x any)   { *h = append(*h, x.(*campaign)) }
func (h *campaignHeap) Pop() any {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}
