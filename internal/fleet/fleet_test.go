package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"powerbench/internal/cluster"
	"powerbench/internal/jobs"
	"powerbench/internal/obs"
	"powerbench/internal/tracectx"
)

// peerFixture is a canned remote shard: stored trace docs, flights and an
// obs payload, served over the peer routes.
type peerFixture struct {
	id      string
	traces  map[string][]byte
	flights map[string][]byte
	status  ShardObs
}

func (p *peerFixture) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"ok"}`))
	})
	mux.HandleFunc("GET /v1/peer/traces", func(w http.ResponseWriter, r *http.Request) {
		l := Listing{Traces: []TraceSummary{}}
		for id, b := range p.traces {
			l.Count++
			l.Bytes += int64(len(b))
			var d tracectx.Doc
			json.Unmarshal(b, &d)
			l.Traces = append(l.Traces, TraceSummary{Trace: id, Spans: len(d.Spans), Shard: p.id})
		}
		json.NewEncoder(w).Encode(l)
	})
	mux.HandleFunc("GET /v1/peer/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		b, ok := p.traces[r.PathValue("id")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(b)
	})
	mux.HandleFunc("GET /v1/peer/flights/{id}", func(w http.ResponseWriter, r *http.Request) {
		b, ok := p.flights[r.PathValue("id")]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Write(b)
	})
	mux.HandleFunc("GET /v1/peer/obs", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(p.status)
	})
	return mux
}

// mesh builds a Federator for shard s0 with two httptest peers s1/s2, both
// marked up, plus the local stores.
func mesh(t *testing.T) (*Federator, *cluster.Cluster, *peerFixture, *peerFixture, *Config) {
	t.Helper()
	owner := ownerDoc()
	ownerBytes, _ := json.Marshal(owner)

	p1 := &peerFixture{
		id:      "s1",
		traces:  map[string][]byte{owner.Trace: ownerBytes},
		flights: map[string][]byte{strings.Repeat("f", 64): []byte(`{"schema":"flight"}` + "\n")},
	}
	reg1 := obs.New()
	reg1.Counter("serve_compute_total").Add(3)
	p1.status = ShardObs{
		Schema: ShardObsSchema,
		ShardStatus: ShardStatus{
			Shard: "s1", Inflight: 1,
			Cache: Occupancy{Entries: 2, Bytes: 100},
			Jobs:  &jobs.Health{QueueDepth: 4, ActiveCampaigns: 1, TotalPoints: 10, DonePoints: 6},
		},
		Metrics: reg1.Metrics.Snapshot(),
	}

	p2 := &peerFixture{id: "s2", traces: map[string][]byte{}, flights: map[string][]byte{}}
	reg2 := obs.New()
	reg2.Counter("serve_compute_total").Add(5)
	p2.status = ShardObs{
		Schema:      ShardObsSchema,
		ShardStatus: ShardStatus{Shard: "s2"},
		Metrics:     reg2.Metrics.Snapshot(),
	}

	srv1 := httptest.NewServer(p1.handler())
	srv2 := httptest.NewServer(p2.handler())
	t.Cleanup(srv1.Close)
	t.Cleanup(srv2.Close)

	o := obs.New()
	c, err := cluster.New(cluster.Config{
		Self: "s0",
		Peers: []cluster.Peer{
			{ID: "s0"}, {ID: "s1", URL: srv1.URL}, {ID: "s2", URL: srv2.URL},
		},
		Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.SetHealthy("s1", true)
	c.SetHealthy("s2", true)

	requester := requesterDoc()
	requesterBytes, _ := json.Marshal(requester)
	localReg := obs.New()
	localReg.Counter("serve_compute_total").Add(2)
	cfg := &Config{
		Cluster: c,
		Obs:     o,
		LocalTrace: func(id string) ([]byte, bool) {
			if id == requester.Trace {
				return requesterBytes, true
			}
			return nil, false
		},
		LocalListing: func() Listing {
			return Listing{Count: 1, Bytes: int64(len(requesterBytes)), Traces: []TraceSummary{
				{Trace: requester.Trace, Spans: len(requester.Spans), Shard: "s0"},
			}}
		},
		LocalFlight: func(id string) ([]byte, bool) { return nil, false },
		LocalStatus: func() ShardObs {
			return ShardObs{
				Schema:      ShardObsSchema,
				ShardStatus: ShardStatus{Shard: "s0", Jobs: &jobs.Health{TotalPoints: 2, DonePoints: 2}},
				Metrics:     localReg.Metrics.Snapshot(),
			}
		},
	}
	return New(*cfg), c, p1, p2, cfg
}

func TestFederatorTraceStitches(t *testing.T) {
	f, _, _, _, _ := mesh(t)
	want := Stitch([]SourcedDoc{{Shard: "s0", Doc: requesterDoc()}, {Shard: "s1", Doc: ownerDoc()}})

	doc, found := f.Trace(context.Background(), requesterDoc().Trace)
	if !found {
		t.Fatal("federated trace not found")
	}
	if doc.Partial {
		t.Error("all peers up but doc marked partial")
	}
	if !reflect.DeepEqual(doc.Shards, []string{"s0", "s1"}) {
		t.Errorf("contributing shards = %v", doc.Shards)
	}
	if doc.TreeHash != want.TreeHash || doc.PipelineHash != want.PipelineHash {
		t.Errorf("federated hashes differ from a direct stitch")
	}
	if len(doc.Spans) != 4 {
		t.Errorf("span count = %d, want 4 (root+peer+compute+run)", len(doc.Spans))
	}
}

func TestFederatorTracePartialOnDownPeer(t *testing.T) {
	f, c, _, _, _ := mesh(t)
	c.SetHealthy("s1", false)
	doc, found := f.Trace(context.Background(), requesterDoc().Trace)
	if !found {
		t.Fatal("local contribution lost")
	}
	if !doc.Partial {
		t.Error("down owner did not mark the doc partial")
	}
	// Only the local stub is available now.
	if !reflect.DeepEqual(doc.Shards, []string{"s0"}) {
		t.Errorf("shards = %v", doc.Shards)
	}
}

func TestFederatorTraceNotFound(t *testing.T) {
	f, _, _, _, _ := mesh(t)
	if _, found := f.Trace(context.Background(), strings.Repeat("0", 32)); found {
		t.Fatal("unknown trace reported found")
	}
}

func TestFederatorList(t *testing.T) {
	f, c, _, _, _ := mesh(t)
	l := f.List(context.Background())
	if l.Partial {
		t.Error("full mesh listing marked partial")
	}
	if l.Count != 1 {
		t.Fatalf("count = %d, want 1 (same trace id deduped across shards)", l.Count)
	}
	// The owner's copy is richer (4 spans vs the requester's 2).
	if l.Traces[0].Shard != "s1" {
		t.Errorf("dedup kept %s's copy, want the richer s1", l.Traces[0].Shard)
	}
	if !reflect.DeepEqual(l.Shards, []string{"s0", "s1", "s2"}) {
		t.Errorf("reporting shards = %v", l.Shards)
	}

	c.SetHealthy("s2", false)
	l = f.List(context.Background())
	if !l.Partial {
		t.Error("listing with a down member not marked partial")
	}
	if !reflect.DeepEqual(l.Shards, []string{"s0", "s1"}) {
		t.Errorf("reporting shards after down = %v", l.Shards)
	}
}

func TestFederatorFlight(t *testing.T) {
	f, c, p1, _, _ := mesh(t)
	id := strings.Repeat("f", 64)
	data, shard, partial, found := f.Flight(context.Background(), id)
	if !found || shard != "s1" || partial {
		t.Fatalf("flight read-through: found=%v shard=%s partial=%v", found, shard, partial)
	}
	if string(data) != string(p1.flights[id]) {
		t.Errorf("flight bytes differ")
	}
	// Miss with a down member: not found, but explicitly partial.
	c.SetHealthy("s1", false)
	_, _, partial, found = f.Flight(context.Background(), id)
	if found {
		t.Fatal("flight served from a down shard")
	}
	if !partial {
		t.Error("miss with a down member not marked partial")
	}
}

func TestFederatorFlightLocalFirst(t *testing.T) {
	f, _, _, _, cfg := mesh(t)
	cfg.LocalFlight = func(id string) ([]byte, bool) { return []byte("local"), true }
	f = New(*cfg)
	data, shard, _, found := f.Flight(context.Background(), "whatever")
	if !found || shard != "s0" || string(data) != "local" {
		t.Fatalf("local flight not preferred: %v %s %q", found, shard, data)
	}
}

func TestFederatorFleet(t *testing.T) {
	f, c, _, _, _ := mesh(t)
	ov := f.Fleet(context.Background())
	if ov.Schema != OverviewSchema || ov.Shard != "s0" || ov.Members != 3 || ov.PeersUp != 2 {
		t.Fatalf("overview header: %+v", ov)
	}
	if ov.Partial {
		t.Error("full mesh overview marked partial")
	}
	if len(ov.Shards) != 3 || ov.Shards[0].Shard != "s0" || ov.Shards[0].State != "self" ||
		ov.Shards[1].State != cluster.StateUp || ov.Shards[2].State != cluster.StateUp {
		t.Fatalf("shard rows: %+v", ov.Shards)
	}
	if ov.Campaigns.TotalPoints != 12 || ov.Campaigns.DonePoints != 8 || ov.Campaigns.QueueDepth != 4 {
		t.Errorf("campaign totals: %+v", ov.Campaigns)
	}
	// Counters sum across shards: 2 (s0) + 3 (s1) + 5 (s2).
	var compute float64
	for _, m := range ov.Metrics.Metrics {
		if m.Name == "serve_compute_total" && len(m.Labels) == 0 {
			compute = m.Value
		}
	}
	if compute != 10 {
		t.Errorf("merged serve_compute_total = %v, want 10", compute)
	}

	c.SetHealthy("s2", false)
	ov = f.Fleet(context.Background())
	if !ov.Partial {
		t.Error("overview with a down member not marked partial")
	}
	var s2 *ShardStatus
	for i := range ov.Shards {
		if ov.Shards[i].Shard == "s2" {
			s2 = &ov.Shards[i]
		}
	}
	if s2 == nil || s2.State != cluster.StateDown {
		t.Fatalf("down member row: %+v", s2)
	}
}

// TestFederatorFleetRejectsMisreport: a peer whose self-report names
// another shard (here s2 claiming to be s0), or carries a malformed
// snapshot, is answered as unreachable and leaves every other shard's
// counters intact.
func TestFederatorFleetRejectsMisreport(t *testing.T) {
	f, _, p1, p2, _ := mesh(t)
	p2.status.Shard = "s0"
	ov := f.Fleet(context.Background())
	if !ov.Partial {
		t.Error("overview with a misreporting peer not marked partial")
	}
	if len(ov.Shards) != 3 || ov.Shards[0].Shard != "s0" || ov.Shards[0].State != "self" ||
		ov.Shards[1].Shard != "s1" || ov.Shards[1].State != cluster.StateUp ||
		ov.Shards[2].Shard != "s2" || ov.Shards[2].State != "unreachable" {
		t.Fatalf("shard rows: %+v", ov.Shards)
	}
	if ov.Campaigns.TotalPoints != 12 {
		t.Errorf("campaign totals: %+v", ov.Campaigns)
	}
	// 2 (s0) + 3 (s1): the impostor neither replaced s0's 2 nor added 5.
	if got := mergedCounter(ov, "serve_compute_total"); got != 5 {
		t.Errorf("merged serve_compute_total = %v, want 5", got)
	}

	p2.status.Shard = "s2"
	p1.status.Metrics.Metrics = append(p1.status.Metrics.Metrics, obs.SnapshotMetric{Name: "x", Type: "bogus"})
	ov = f.Fleet(context.Background())
	if !ov.Partial || ov.Shards[1].State != "unreachable" || ov.Shards[2].State != cluster.StateUp {
		t.Fatalf("malformed snapshot accepted: partial=%v rows %+v", ov.Partial, ov.Shards)
	}
	if got := mergedCounter(ov, "serve_compute_total"); got != 7 {
		t.Errorf("merged serve_compute_total = %v, want 7", got)
	}
}

func mergedCounter(ov Overview, name string) float64 {
	for _, m := range ov.Metrics.Metrics {
		if m.Name == name && len(m.Labels) == 0 {
			return m.Value
		}
	}
	return 0
}
