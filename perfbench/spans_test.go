package main

import (
	"math"
	"testing"
	"time"
)

func span(id, parent int, start, end int64) Span {
	return Span{ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimesSumToRoot(t *testing.T) {
	// root [0,100): a [10,40) with a1 [15,25) and a2 [25,35), b [50,90)
	// with b1 [60,80), c [95,100).
	spans := []Span{
		span(0, -1, 0, 100),
		span(1, 0, 10, 40), span(2, 1, 15, 25), span(3, 1, 25, 35),
		span(4, 0, 50, 90), span(5, 4, 60, 80),
		span(6, 0, 95, 100),
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{0: 25, 1: 10, 2: 10, 3: 10, 4: 20, 5: 20, 6: 5}
	var sum time.Duration
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
		sum += self[id]
	}
	if sum != spans[0].Dur() {
		t.Errorf("self times sum to %d, root lasted %d", sum, spans[0].Dur())
	}
}

func TestSelfTimesCountOverlapOnceAndClipOverhang(t *testing.T) {
	// Overlapping children cover their union once; a child running past
	// its parent only covers the parent's part of it.
	spans := []Span{
		span(0, -1, 0, 100),
		span(1, 0, 10, 40), span(2, 0, 30, 60), // union [10,60)
		span(3, 0, 90, 120), // overhangs the root by 20
	}
	if got := SelfTimes(spans)[0]; got != 40 {
		t.Errorf("root self time %d, want 100 - 50 - 10 = 40", got)
	}
}

func TestSelfTimesConserveOnWellNestedTree(t *testing.T) {
	rec := NewRecorder()
	root := rec.Start("request", -1, 0)
	for i := 0; i < 3; i++ {
		rec.Do("layer", root, 0, func() {
			rec.Do("leaf", len(rec.spans)-1, 0, func() { time.Sleep(time.Millisecond) })
		})
	}
	rec.End(root)
	var sum time.Duration
	for _, v := range SelfTimes(rec.Spans()) {
		sum += v
	}
	if sum != rec.Spans()[root].Dur() {
		t.Errorf("self times sum to %v, root lasted %v", sum, rec.Spans()[root].Dur())
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var rec *Recorder
	ran := false
	if id := rec.Do("x", -1, 0, func() { ran = true }); id != -1 || !ran || rec.Spans() != nil {
		t.Errorf("nil recorder: id %d, ran %v, spans %v", id, ran, rec.Spans())
	}
}

const exposition = `# TYPE cluster_peer_hits_total counter
cluster_peer_hits_total 0
cluster_peer_hits_total{peer="s1"} 7
cluster_peer_hits_total{peer="s2"} 5
# TYPE cluster_peer_hits_total_extra counter
cluster_peer_hits_total_extra 100
# TYPE serve_compute_seconds histogram
serve_compute_seconds_bucket{le="0.01"} 3
serve_compute_seconds_bucket{le="+Inf"} 4 # {span="trace:abc"} 0.02
serve_compute_seconds_sum 0.05
serve_compute_seconds_count 4
# TYPE labeled_with_space gauge
labeled_with_space{route="a b"} 2.5
`

func TestParsePromFamilies(t *testing.T) {
	s := parseProm(exposition)
	for name, want := range map[string]float64{
		"cluster_peer_hits_total":       12, // unlabeled + both peers, counted once each
		"cluster_peer_hits_total_extra": 100,
		"serve_compute_seconds_sum":     0.05,
		"serve_compute_seconds_count":   4,
		"serve_compute_seconds":         0, // the bare histogram name has no samples
		"labeled_with_space":            2.5,
	} {
		if got := s.family(name); math.Abs(got-want) > 1e-12 {
			t.Errorf("family(%s) = %g, want %g", name, got, want)
		}
	}
	if got := s[`serve_compute_seconds_bucket{le="+Inf"}`]; got != 4 {
		t.Errorf("exemplar line parsed as %g, want 4", got)
	}
	after := parseProm(`cluster_peer_hits_total{peer="s1"} 10` + "\n" + `cluster_peer_hits_total{peer="s2"} 5` + "\n")
	if d := delta(s, after, "cluster_peer_hits_total"); d != 3 {
		t.Errorf("delta = %g, want 3", d)
	}
	sum := sumScrapes(s, after)
	if got := sum.family("cluster_peer_hits_total"); got != 27 {
		t.Errorf("summed scrapes: %g, want 27", got)
	}
}
