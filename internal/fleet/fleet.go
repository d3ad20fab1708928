package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"sort"
	"sync"

	"powerbench/internal/cluster"
	"powerbench/internal/jobs"
	"powerbench/internal/obs"
	"powerbench/internal/tracectx"
)

// OverviewSchema marks the GET /v1/fleet document.
const OverviewSchema = "powerbench-fleet-v1"

// ShardObsSchema marks one shard's GET /v1/peer/obs self-report.
const ShardObsSchema = "powerbench-shardobs-v1"

// Occupancy is one bounded store's fill level.
type Occupancy struct {
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// TraceSummary is one row of a trace listing, local or federated. The
// fields mirror what /v1/traces always served, plus the shard whose store
// holds the document.
type TraceSummary struct {
	Trace      string `json:"trace"`
	Root       string `json:"root"`
	Status     int    `json:"status"`
	Reason     string `json:"reason"`
	DurationUS int64  `json:"duration_us"`
	Flight     string `json:"flight,omitempty"`
	Spans      int    `json:"spans"`
	Shard      string `json:"shard,omitempty"`
}

// Listing is a trace listing: local on /v1/peer/traces, merged across the
// fleet on /v1/traces. A federated listing dedupes by trace id (identical
// requests share an id cluster-wide), keeping the richest copy.
type Listing struct {
	Count   int            `json:"count"`
	Bytes   int64          `json:"bytes"`
	Partial bool           `json:"partial,omitempty"`
	Shards  []string       `json:"shards,omitempty"`
	Traces  []TraceSummary `json:"traces"`
}

// ShardStatus is one shard's row in the fleet health block. State is the
// observer's verdict ("self", cluster.StateUp/Down/Probing, or
// "unreachable" when an up peer failed mid-fan-out); the remaining fields
// are the shard's self-report.
type ShardStatus struct {
	Shard    string       `json:"shard"`
	State    string       `json:"state"`
	Draining bool         `json:"draining,omitempty"`
	Inflight int          `json:"inflight"`
	Cache    Occupancy    `json:"cache"`
	Traces   Occupancy    `json:"traces"`
	Flights  Occupancy    `json:"flights"`
	Jobs     *jobs.Health `json:"jobs,omitempty"`
}

// ShardObs is the full /v1/peer/obs payload: the status row plus the
// shard's metrics snapshot.
type ShardObs struct {
	Schema string `json:"schema"`
	ShardStatus
	Metrics obs.Snapshot `json:"metrics"`
}

// CampaignTotals aggregates the reporting shards' jobs blocks.
type CampaignTotals struct {
	QueueDepth        int  `json:"queue_depth"`
	ActiveCampaigns   int  `json:"active_campaigns"`
	TotalPoints       int  `json:"total_points"`
	DonePoints        int  `json:"done_points"`
	QuarantinedPoints int  `json:"quarantined_points"`
	WALSegments       int  `json:"wal_segments"`
	ReadOnly          bool `json:"read_only"`
}

// Overview is the GET /v1/fleet document: ring shape, per-shard health,
// campaign progress and the merged metrics rollup.
type Overview struct {
	Schema     string         `json:"schema"`
	Shard      string         `json:"shard"` // the shard that answered
	Members    int            `json:"members"`
	RingPoints int            `json:"ring_points"`
	PeersUp    int            `json:"peers_up"`
	Partial    bool           `json:"partial,omitempty"`
	Shards     []ShardStatus  `json:"shards"`
	Campaigns  CampaignTotals `json:"campaigns"`
	Metrics    obs.Snapshot   `json:"metrics"`
}

// Config wires a Federator to its shard: the cluster view it fans out
// through and the local stores it reads without a network hop.
type Config struct {
	Cluster *cluster.Cluster
	Obs     *obs.Obs
	// LocalTrace returns the stored document bytes for a trace id.
	LocalTrace func(id string) ([]byte, bool)
	// LocalListing returns the local trace listing with Shard filled in.
	LocalListing func() Listing
	// LocalFlight returns the stored flight-record bytes for a flight id.
	LocalFlight func(id string) ([]byte, bool)
	// LocalStatus returns this shard's self-report including its snapshot.
	LocalStatus func() ShardObs
}

// Federator answers cluster-wide observability queries from any shard. All
// fan-out is bounded: only peers the health view says are up are dialed,
// each dial is capped by the cluster's peer timeout, and everything a down
// or failing peer should have contributed degrades to a partial result
// (explicitly marked) instead of an error. A standalone daemon never fans
// out at all.
type Federator struct {
	cfg Config
}

// New builds a Federator; Config.Cluster must be non-nil.
func New(cfg Config) *Federator {
	return &Federator{cfg: cfg}
}

// Standalone reports whether this shard has no peers to federate with.
func (f *Federator) Standalone() bool { return f.cfg.Cluster.Members() <= 1 }

// peerResult is one peer's answer to a fan-out fetch.
type peerResult struct {
	peer   string
	body   []byte
	status int
	err    error
}

// fanOut queries path on every up peer concurrently and returns the
// results plus whether the fleet view is partial: some member was already
// known down (or still probing), or an up peer failed mid-flight.
func (f *Federator) fanOut(ctx context.Context, path string) (results []peerResult, partial bool) {
	c := f.cfg.Cluster
	up := c.UpPeers()
	if len(up) < len(c.PeerIDs()) {
		partial = true
	}
	if len(up) == 0 {
		return nil, partial
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for _, id := range up {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			body, status, err := c.Fetch(ctx, id, path)
			mu.Lock()
			results = append(results, peerResult{peer: id, body: body, status: status, err: err})
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	for _, r := range results {
		if r.err != nil || (r.status != http.StatusOK && r.status != http.StatusNotFound) {
			partial = true
		}
	}
	sort.Slice(results, func(i, j int) bool { return results[i].peer < results[j].peer })
	return results, partial
}

func (f *Federator) count(kind string, partial bool) {
	f.cfg.Obs.Counter("fleet_queries_total", obs.L("kind", kind)).Inc()
	if partial {
		f.cfg.Obs.Counter("fleet_partial_total", obs.L("kind", kind)).Inc()
	}
}

// Trace assembles the federated document for one trace id: the local store
// plus every up peer's, stitched into one canonical tree. found is false
// when no shard retained the trace. The stitched document carries the
// contributing shard ids and, when the fleet view was incomplete, the
// partial marker.
func (f *Federator) Trace(ctx context.Context, id string) (doc *tracectx.Doc, found bool) {
	contribs := make([]SourcedDoc, 0, 4)
	self := f.cfg.Cluster.Self()
	if b, ok := f.cfg.LocalTrace(id); ok {
		if d, err := tracectx.ParseDoc(b); err == nil {
			contribs = append(contribs, SourcedDoc{Shard: self, Doc: d})
		}
	}
	results, partial := f.fanOut(ctx, "/v1/peer/traces/"+url.PathEscape(id))
	for _, r := range results {
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		d, err := tracectx.ParseDoc(r.body)
		if err != nil {
			partial = true
			continue
		}
		contribs = append(contribs, SourcedDoc{Shard: r.peer, Doc: d})
	}
	f.count("trace", partial)
	stitched := Stitch(contribs)
	if stitched == nil {
		return nil, false
	}
	stitched.Partial = partial
	return stitched, true
}

// List merges every reachable shard's trace listing, deduping by trace id
// (keep the copy with more spans; ties go to the smallest shard id) so the
// same union of stores renders byte-identically wherever it is asked for.
func (f *Federator) List(ctx context.Context) Listing {
	local := f.cfg.LocalListing()
	listings := []Listing{local}
	shards := []string{f.cfg.Cluster.Self()}
	results, partial := f.fanOut(ctx, "/v1/peer/traces")
	for _, r := range results {
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		var l Listing
		if err := json.Unmarshal(r.body, &l); err != nil {
			partial = true
			continue
		}
		listings = append(listings, l)
		shards = append(shards, r.peer)
	}
	f.count("list", partial)
	merged := MergeListings(listings)
	merged.Partial = partial
	sort.Strings(shards)
	merged.Shards = shards
	return merged
}

// MergeListings combines trace listings into one deduped, id-sorted
// listing. Bytes sums the contributing stores' occupancy (the same trace
// retained on two shards occupies both).
func MergeListings(listings []Listing) Listing {
	byID := map[string]TraceSummary{}
	var out Listing
	for _, l := range listings {
		out.Bytes += l.Bytes
		for _, t := range l.Traces {
			cur, ok := byID[t.Trace]
			if !ok || t.Spans > cur.Spans || (t.Spans == cur.Spans && t.Shard < cur.Shard) {
				byID[t.Trace] = t
			}
		}
	}
	out.Traces = make([]TraceSummary, 0, len(byID))
	for _, t := range byID {
		out.Traces = append(out.Traces, t)
	}
	sort.Slice(out.Traces, func(i, j int) bool { return out.Traces[i].Trace < out.Traces[j].Trace })
	out.Count = len(out.Traces)
	return out
}

// Flight resolves a flight id anywhere in the fleet: the local store
// first, then every up peer. The flight id is a content hash of the
// request key — not reversible to an owner — so the read-through must fan
// out; any copy is the right copy, because flight bytes for a key are
// byte-identical wherever they were recorded. partial reports whether a
// miss might be a false negative (some shard was unreachable).
func (f *Federator) Flight(ctx context.Context, id string) (data []byte, shard string, partial, found bool) {
	self := f.cfg.Cluster.Self()
	if b, ok := f.cfg.LocalFlight(id); ok {
		f.count("flight", false)
		return b, self, false, true
	}
	results, partial := f.fanOut(ctx, "/v1/peer/flights/"+url.PathEscape(id))
	f.count("flight", partial)
	for _, r := range results {
		if r.err == nil && r.status == http.StatusOK && len(r.body) > 0 {
			return r.body, r.peer, partial, true
		}
	}
	return nil, "", partial, false
}

// Fleet assembles the cluster-wide overview: a status row per member
// (including the unreachable ones, marked), campaign totals over the
// reporting shards, and the merged metrics rollup.
func (f *Federator) Fleet(ctx context.Context) Overview {
	c := f.cfg.Cluster
	self := f.cfg.LocalStatus()
	self.State = "self"

	ov := Overview{
		Schema:     OverviewSchema,
		Shard:      c.Self(),
		Members:    c.Members(),
		RingPoints: c.RingSize(),
		PeersUp:    len(c.UpPeers()),
	}
	snapshots := map[string]obs.Snapshot{c.Self(): self.Metrics}
	ov.Shards = append(ov.Shards, self.ShardStatus)
	addTotals(&ov.Campaigns, self.Jobs)

	reported := map[string]bool{}
	results, partial := f.fanOut(ctx, "/v1/peer/obs")
	for _, r := range results {
		if so, ok := decodeShardObs(r); ok {
			so.State = cluster.StateUp
			ov.Shards = append(ov.Shards, so.ShardStatus)
			snapshots[r.peer] = so.Metrics
			addTotals(&ov.Campaigns, so.Jobs)
			reported[r.peer] = true
			continue
		}
		partial = true
		ov.Shards = append(ov.Shards, ShardStatus{Shard: r.peer, State: "unreachable"})
		reported[r.peer] = true
	}
	// Members the health view already ruled out still get a row, with the
	// prober's verdict, so the overview always lists the full membership.
	for _, ph := range c.Health().Peers {
		if !reported[ph.ID] {
			ov.Shards = append(ov.Shards, ShardStatus{Shard: ph.ID, State: ph.State, Draining: ph.Draining})
		}
	}
	sort.Slice(ov.Shards, func(i, j int) bool { return ov.Shards[i].Shard < ov.Shards[j].Shard })
	ov.Partial = partial
	ov.Metrics = obs.MergeSnapshot(snapshots)
	f.count("fleet", partial)
	return ov
}

// decodeShardObs checks a peer's /v1/peer/obs answer before the overview
// trusts it. The self-report must name the peer that was dialed: a shard
// started with a wrong or duplicate -shard-id would otherwise overwrite
// another member's metrics in the rollup, or this shard's own. Its
// snapshot must pass obs.ParseSnapshot's metric name and type checks.
func decodeShardObs(r peerResult) (ShardObs, bool) {
	if r.err != nil || r.status != http.StatusOK {
		return ShardObs{}, false
	}
	var body struct {
		ShardObs
		Metrics json.RawMessage `json:"metrics"`
	}
	if json.Unmarshal(r.body, &body) != nil || body.Shard != r.peer {
		return ShardObs{}, false
	}
	snap, err := obs.ParseSnapshot(body.Metrics)
	if err != nil {
		return ShardObs{}, false
	}
	so := body.ShardObs
	so.Metrics = snap
	return so, true
}

func addTotals(t *CampaignTotals, h *jobs.Health) {
	if h == nil {
		return
	}
	t.QueueDepth += h.QueueDepth
	t.ActiveCampaigns += h.ActiveCampaigns
	t.TotalPoints += h.TotalPoints
	t.DonePoints += h.DonePoints
	t.QuarantinedPoints += h.QuarantinedPoints
	t.WALSegments += h.WALSegments
	t.ReadOnly = t.ReadOnly || h.ReadOnly
}
