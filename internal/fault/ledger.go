package fault

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Kind enumerates the injectable fault categories for ledger accounting.
type Kind int

const (
	// KindDropped counts meter samples removed from a trace.
	KindDropped Kind = iota
	// KindDuplicated counts meter samples emitted twice.
	KindDuplicated
	// KindSpiked counts watt readings multiplied by a spike factor.
	KindSpiked
	// KindStuck counts watt readings frozen at the previous value.
	KindStuck
	// KindNaN counts watt readings replaced with NaN.
	KindNaN
	// KindZeroed counts watt readings forced to zero.
	KindZeroed
	// KindTruncated counts meter samples lost to trace truncation.
	KindTruncated
	// KindWrapped counts PMU windows whose counters wrapped.
	KindWrapped
	// KindRunFailure counts injected transient run-attempt failures.
	KindRunFailure

	numKinds
)

// NumKinds is the number of fault categories; Kind values range over
// [0, NumKinds) for ledger iteration.
const NumKinds = numKinds

var kindNames = [numKinds]string{
	"dropped samples", "duplicated samples", "spiked readings",
	"stuck readings", "NaN readings", "zeroed readings",
	"truncated samples", "wrapped PMU windows", "run failures",
}

// String names the kind for reports.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Ledger accumulates injected-fault counts. It is safe for concurrent use:
// the injectors of concurrently executing runs share one ledger, and because
// the counts themselves are derived deterministically per run identity, the
// totals are identical at any worker count.
type Ledger struct {
	counts [numKinds]int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

func (l *Ledger) add(k Kind, n int64) {
	if l == nil {
		return
	}
	atomic.AddInt64(&l.counts[k], n)
}

// Count returns the injected total of one kind. A nil ledger reports zero.
func (l *Ledger) Count(k Kind) int64 {
	if l == nil || k < 0 || k >= numKinds {
		return 0
	}
	return atomic.LoadInt64(&l.counts[k])
}

// AddAll folds another ledger's counts into l (the merge half of the
// private-ledger pattern: run with a per-run ledger for deterministic
// per-run counts, then AddAll into the shared one). Nil receivers and
// arguments are no-ops.
func (l *Ledger) AddAll(other *Ledger) {
	if l == nil || other == nil {
		return
	}
	for k := Kind(0); k < numKinds; k++ {
		l.add(k, other.Count(k))
	}
}

// Map returns the non-zero counts keyed by kind name, the form flight
// records serialize. A nil or empty ledger returns nil.
func (l *Ledger) Map() map[string]int64 {
	var out map[string]int64
	for k := Kind(0); k < numKinds; k++ {
		if n := l.Count(k); n > 0 {
			if out == nil {
				out = map[string]int64{}
			}
			out[k.String()] = n
		}
	}
	return out
}

// Total returns the number of injected faults across all kinds.
func (l *Ledger) Total() int64 {
	var sum int64
	for k := Kind(0); k < numKinds; k++ {
		sum += l.Count(k)
	}
	return sum
}

// String renders the non-zero counts, e.g.
// "12 dropped samples, 3 NaN readings, 1 run failures".
func (l *Ledger) String() string {
	var parts []string
	for k := Kind(0); k < numKinds; k++ {
		if n := l.Count(k); n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, k))
		}
	}
	if len(parts) == 0 {
		return "no faults injected"
	}
	return strings.Join(parts, ", ")
}
