package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"net/http"
	"sort"
	"sync"
	"time"

	"powerbench/internal/fleet"
	"powerbench/internal/obs"
	"powerbench/internal/tracectx"
)

// This file is the service's request-tracing surface (DESIGN.md §11): every
// compute request carries a tracectx trace from HTTP ingress down through
// the scheduler and simulation, and settled traces land in a bounded,
// content-addressed store behind GET /v1/traces, tail-sampled so the
// forensically interesting ones (errors, faulted runs, slow requests, cache
// misses) are always retained.

// traceHeader names the response header carrying the request's trace id.
// Like the flight id, it is a pure function of the canonical request key,
// so it is present on every response path — a client holding the id can
// fetch the trace once (and if) the tail sampler kept it.
const traceHeader = "X-Powerbench-Trace"

// sampleReason decides tail-based retention for a settled trace and names
// the rule that kept it. The decision runs after completion (that is what
// makes it tail sampling: outcome known, not guessed at ingress) and its
// probabilistic arm hashes the canonical request key — never wall clock —
// so whether a given request's trace is kept is itself deterministic.
// Empty string means drop.
func (s *Server) sampleReason(status int, faulted bool, how string, dur time.Duration, key string) string {
	switch {
	case status >= 400:
		return "error"
	case faulted:
		return "faulted"
	case dur >= s.cfg.traceSlow():
		return "slow"
	case how == "miss":
		return "cache-miss"
	case how == "peer":
		// Peer-served misses are always retained: they document the
		// cluster's routing decisions (which shard owned the key, how long
		// the fetch took) — exactly what a cross-shard forensics question
		// needs.
		return "peer"
	case keyFraction(key) < s.cfg.traceSampleRate():
		return "sampled"
	}
	return ""
}

// keyFraction maps a request key to a uniform [0,1) fraction via a
// domain-separated hash, the deterministic stand-in for a sampling coin.
func keyFraction(key string) float64 {
	sum := sha256.Sum256([]byte("powerbench-trace-sample|" + key))
	return float64(binary.BigEndian.Uint64(sum[:8])) / float64(1<<63) / 2
}

// traceStore is the bounded trace repository: trace id → exported document
// bytes, LRU-evicted by entry count with byte accounting for the health
// surface. Because trace ids are content addresses, a hit and a later miss
// of the same request share an id; Put keeps whichever document carries
// more spans, so a full compute trace is never clobbered by the stub trace
// of a subsequent cache hit.
type traceStore struct {
	mu    sync.Mutex
	cap   int
	bytes int64
	order *list.List // front = most recently used; values are *traceEntry
	items map[string]*list.Element
}

type traceEntry struct {
	id   string
	doc  []byte
	meta fleet.TraceSummary
}

func newTraceStore(capacity int) *traceStore {
	if capacity < 1 {
		capacity = 1
	}
	return &traceStore{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Put stores doc under id and returns how many entries were evicted. An
// existing entry is replaced only by a richer document (more spans).
func (t *traceStore) Put(id string, doc []byte, meta fleet.TraceSummary) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[id]; ok {
		e := el.Value.(*traceEntry)
		if meta.Spans > e.meta.Spans {
			t.bytes += int64(len(doc)) - int64(len(e.doc))
			e.doc, e.meta = doc, meta
		}
		t.order.MoveToFront(el)
		return 0
	}
	t.items[id] = t.order.PushFront(&traceEntry{id: id, doc: doc, meta: meta})
	t.bytes += int64(len(doc))
	if t.order.Len() <= t.cap {
		return 0
	}
	oldest := t.order.Back()
	e := oldest.Value.(*traceEntry)
	t.order.Remove(oldest)
	delete(t.items, e.id)
	t.bytes -= int64(len(e.doc))
	return 1
}

// Covers reports whether the store holds a document for id with at least
// spans spans, marking it most recently used if so. Put would keep that
// document over one of spans spans, so a caller told true can skip
// exporting its own.
func (t *traceStore) Covers(id string, spans int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.items[id]
	if !ok || el.Value.(*traceEntry).meta.Spans < spans {
		return false
	}
	t.order.MoveToFront(el)
	return true
}

// Get returns the stored document for id and marks it most recently used.
func (t *traceStore) Get(id string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.items[id]
	if !ok {
		return nil, false
	}
	t.order.MoveToFront(el)
	return el.Value.(*traceEntry).doc, true
}

// List returns the stored traces' metadata sorted by trace id.
func (t *traceStore) List() []fleet.TraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]fleet.TraceSummary, 0, len(t.items))
	for _, el := range t.items {
		out = append(out, el.Value.(*traceEntry).meta)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Trace < out[j].Trace })
	return out
}

// Len returns the current entry count.
func (t *traceStore) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}

// Bytes returns the summed document sizes.
func (t *traceStore) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// newRequestTrace opens the trace for one compute request: id derived from
// the canonical key (the caller's tracectx.DeriveID), root span named after
// the route, and the client's traceparent (if one parses) recorded as
// origin metadata. The internal trace id stays canonical even under an
// incoming parent — two peers computing the same key converge on the same
// trace — but the origin field preserves the upstream hop for
// cross-linking.
func newRequestTrace(req *http.Request, route string, id tracectx.ID) *tracectx.Trace {
	tr := tracectx.New(id, route, "serve")
	if h := req.Header.Get(tracectx.TraceparentHeader); h != "" {
		if _, err := tracectx.Parse(h); err == nil {
			tr.SetOrigin(h)
		}
	}
	return tr
}

// storeTrace exports a settled request's trace, applies the tail-sampling
// policy, and publishes the kept document. Drops are counted, keeps are
// labeled by rule, so the sampler's behavior is observable. A kept trace
// the store already covers (typically a cache hit's two spans under the
// miss's full trace) is only counted and refreshed: Put would discard its
// document, so it is never exported.
func (s *Server) storeTrace(tr *tracectx.Trace, route, key string, status int, faulted bool, how string, dur time.Duration) {
	if tr == nil {
		return
	}
	reason := s.sampleReason(status, faulted, how, dur, key)
	if reason == "" {
		s.obs.Counter("serve_traces_dropped_total").Inc()
		return
	}
	stored := s.obs.Counter("serve_traces_stored_total", obs.L("reason", reason))
	if s.traces.Covers(tr.ID().String(), tr.SpanCount()) {
		stored.Inc()
		return
	}
	doc := tr.Export()
	doc.Key = key
	doc.Status = status
	doc.Reason = reason
	doc.Flight = flightID(key)
	body, err := marshalBody(doc)
	if err != nil {
		s.obs.Infof("trace %s not stored: %v", doc.Trace, err)
		return
	}
	evicted := s.traces.Put(doc.Trace, body, fleet.TraceSummary{
		Trace: doc.Trace, Root: route, Status: status, Reason: reason,
		DurationUS: doc.DurationUS, Flight: doc.Flight, Spans: len(doc.Spans),
		Shard: s.cluster.Self(),
	})
	stored.Inc()
	s.obs.Counter("serve_trace_evictions_total").Add(int64(evicted))
	s.obs.Gauge("serve_trace_entries").Set(float64(s.traces.Len()))
	s.obs.Gauge("serve_trace_bytes").Set(float64(s.traces.Bytes()))
}

// handleTraces lists the stored traces with store occupancy. On a sharded
// daemon the listing is federated: every up peer's store is merged in,
// deduped by trace id, with the partial marker when some member could not
// contribute. A standalone daemon serves its local store unchanged.
func (s *Server) handleTraces(w http.ResponseWriter, req *http.Request) {
	l := s.localListing()
	if !s.fleet.Standalone() {
		l = s.fleet.List(req.Context())
	}
	body, err := marshalBody(l)
	if err != nil {
		fail(w, err)
		return
	}
	writeBody(w, http.StatusOK, "", body)
}

// handleTrace serves one trace document by id. On a sharded daemon the
// response is the federated stitch: this shard's stored document (if any)
// merged with every up peer's contribution for the same id, so a client can
// ask any shard and receive the whole cross-shard tree.
func (s *Server) handleTrace(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if !validTraceID(id) {
		writeError(w, http.StatusBadRequest, "trace id must be 32 lowercase hex characters")
		return
	}
	if !s.fleet.Standalone() {
		doc, found := s.fleet.Trace(req.Context(), id)
		if !found {
			writeError(w, http.StatusNotFound, "no trace retained under "+id+" (tail sampling keeps error/faulted/slow/cache-miss traces)")
			return
		}
		body, err := marshalBody(doc)
		if err != nil {
			fail(w, err)
			return
		}
		writeBody(w, http.StatusOK, "", body)
		return
	}
	doc, ok := s.traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no trace retained under "+id+" (tail sampling keeps error/faulted/slow/cache-miss traces)")
		return
	}
	writeBody(w, http.StatusOK, "", doc)
}

func validTraceID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
