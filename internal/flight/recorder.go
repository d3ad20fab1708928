package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// DefaultCapacity bounds a recorder when NewRecorder is given 0: generous
// enough for any CLI session (a full three-server comparison appends six
// records), small enough that a long-lived daemon cannot grow unbounded.
const DefaultCapacity = 4096

// Recorder is a bounded, concurrency-safe ring of flight records. Records
// are encoded at Add time (so a caller mutating its Record afterwards
// cannot corrupt the ring) and flushed in canonical order — sorted by
// (method, server, seed, key, bytes), never by arrival — which is what
// makes the flushed JSONL byte-identical at any scheduler worker count.
// When the ring is full the oldest record is dropped and Dropped counts it;
// a flush after drops is still canonical over the surviving records, but
// byte-identity across worker counts is only guaranteed while Dropped is 0.
//
// A nil *Recorder is a no-op sink, so pipeline call sites need no
// conditional wiring.
type Recorder struct {
	mu      sync.Mutex
	cap     int
	entries []entry
	dropped int64
}

// entry pairs a decoded record with its canonical encoding.
type entry struct {
	rec  Record
	data []byte
}

// NewRecorder returns a recorder bounded to capacity records
// (0 selects DefaultCapacity, minimum 1).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{cap: capacity}
}

// Add appends one record, stamping the schema and dropping the oldest
// entry when the ring is full. Records that fail to encode are counted as
// dropped (a record is plain data; this cannot happen for pipeline-built
// records). Nil recorders discard.
func (r *Recorder) Add(rec Record) {
	if r == nil {
		return
	}
	if rec.SchemaV == "" {
		rec.SchemaV = Schema
	}
	data, err := json.Marshal(rec)
	if err != nil {
		r.mu.Lock()
		r.dropped++
		r.mu.Unlock()
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) >= r.cap {
		n := copy(r.entries, r.entries[1:])
		r.entries = r.entries[:n]
		r.dropped++
	}
	r.entries = append(r.entries, entry{rec: rec, data: data})
}

// Len returns the number of buffered records.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Dropped returns how many records the ring discarded (overflow or encode
// failure).
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// snapshot returns the entries in canonical order.
func (r *Recorder) snapshot() []entry {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]entry(nil), r.entries...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.rec.Method != b.rec.Method {
			return a.rec.Method < b.rec.Method
		}
		if a.rec.Server != b.rec.Server {
			return a.rec.Server < b.rec.Server
		}
		if a.rec.Seed != b.rec.Seed {
			return a.rec.Seed < b.rec.Seed
		}
		if a.rec.Key != b.rec.Key {
			return a.rec.Key < b.rec.Key
		}
		return bytes.Compare(a.data, b.data) < 0
	})
	return out
}

// Records returns the buffered records in canonical order.
func (r *Recorder) Records() []Record {
	entries := r.snapshot()
	if len(entries) == 0 {
		return nil
	}
	out := make([]Record, len(entries))
	for i, e := range entries {
		out[i] = e.rec
	}
	return out
}

// Bytes renders the buffered records as canonical JSONL.
func (r *Recorder) Bytes() []byte {
	var buf bytes.Buffer
	for _, e := range r.snapshot() {
		buf.Write(e.data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// WriteFile flushes the canonical JSONL to path.
func (r *Recorder) WriteFile(path string) error {
	if err := os.WriteFile(path, r.Bytes(), 0o644); err != nil {
		return fmt.Errorf("flight: writing %s: %w", path, err)
	}
	return nil
}
