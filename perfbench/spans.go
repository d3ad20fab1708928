package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call of the traced replay: which layer, when, under
// which parent span, for which replayed request.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Recorder keeps spans in memory; they are written out once, when the run
// ends. A nil *Recorder records nothing, which is the untraced mode the
// trace-overhead ratio compares against.
type Recorder struct {
	epoch time.Time
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span and returns its id (-1 on a nil recorder).
func (r *Recorder) Start(name string, parent, req int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, Span{ID: len(r.spans), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
}

// Do runs f inside a span and returns the span id.
func (r *Recorder) Do(name string, parent, req int, f func()) int {
	id := r.Start(name, parent, req)
	f()
	r.End(id)
	return id
}

// Spans returns the recorded spans in start order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// WriteFile writes the spans as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	b, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
	}{r.Spans()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval its children cover. Overlapping children count once, and a
// child's part outside the parent's interval is not subtracted, so the
// self times of a well-nested tree sum to the root's duration.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}
