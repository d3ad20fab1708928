package jobs

import "testing"

func qc(client string, priority int, seq int64) *campaign {
	return &campaign{
		id:   client + "-c",
		seq:  seq,
		spec: &SweepSpec{Client: client, Priority: priority},
	}
}

// One tenant's big campaign must not starve another's: pops round-robin
// across clients.
func TestFairQueueRoundRobin(t *testing.T) {
	q := newFairQueue()
	a1, a2 := qc("a", 0, 1), qc("a", 0, 2)
	b1 := qc("b", 0, 3)
	q.push(a1)
	q.push(a2)
	q.push(b1)
	got := []*campaign{q.pop(), q.pop(), q.pop()}
	// First two pops must cover both clients.
	if got[0].spec.Client == got[1].spec.Client {
		t.Errorf("first two pops served one client twice: %s then %s",
			got[0].spec.Client, got[1].spec.Client)
	}
	if q.pop() != nil {
		t.Error("pop on drained queue should be nil")
	}
	if q.depth != 0 {
		t.Errorf("depth %d after drain", q.depth)
	}
}

// Within one client, higher priority drains first; ties are FIFO by
// acceptance order.
func TestFairQueuePriorityThenFIFO(t *testing.T) {
	q := newFairQueue()
	low := qc("a", 0, 1)
	high := qc("a", 5, 2)
	tie := qc("a", 5, 3)
	q.push(low)
	q.push(high)
	q.push(tie)
	if got := q.pop(); got != high {
		t.Errorf("first pop %v, want the high-priority campaign", got.seq)
	}
	if got := q.pop(); got != tie {
		t.Errorf("second pop seq %d, want the earlier-seq tie", got.seq)
	}
	if got := q.pop(); got != low {
		t.Errorf("third pop seq %d, want the low-priority campaign", got.seq)
	}
}

func TestFairQueueRemove(t *testing.T) {
	q := newFairQueue()
	a, b := qc("a", 0, 1), qc("a", 0, 2)
	q.push(a)
	q.push(b)
	if !q.remove(a) {
		t.Fatal("remove of a queued campaign reported false")
	}
	if q.remove(a) {
		t.Error("second remove reported true")
	}
	if got := q.pop(); got != b {
		t.Errorf("pop after remove returned seq %d, want %d", got.seq, b.seq)
	}
}
