package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"powerbench/internal/cluster"
	"powerbench/internal/jobs"
)

// workload is one traffic mix: how many daemons it boots, how set-up warms
// them, and what its timed phase sends.
type workload struct {
	name   string
	why    string
	shards int
	// want is the X-Powerbench-Cache value every timed answer must carry.
	want  string
	warm  func(b *bench) error
	timed func(b *bench, deadline time.Time) (*phase, error)
	// check verifies the phase after it ended: kept bodies against the
	// in-process result, and the workload's design invariants.
	check func(b *bench, p *phase) []string
}

var workloads = []*workload{
	{
		name: "hit-hot", shards: 1, want: "hit",
		why:  "48 pre-warmed keys drawn uniformly: every request is a result-cache hit, so HTTP and serve do all the work",
		warm: warmHot, timed: timedHot, check: checkHot,
	},
	{
		name: "miss-mix", shards: 1, want: "miss",
		why:  "distinct keys over evaluate/green500/compare, a quarter faulted, warm profiles: the core pipeline and sched dominate",
		warm: warmMiss, timed: timedMiss, check: checkMiss,
	},
	{
		name: "cold-custom", shards: 1, want: "miss",
		why:  "custom specs under fresh names, half with a never-profiled cache geometry: cache.Profile dominates",
		warm: warmCold, timed: timedCold, check: checkCold,
	},
	{
		name: "sharded-campaign", shards: 2, want: "peer",
		why:  "sweep campaigns on a 2-shard cluster, then each point s0 owns read from s1 through the peer: jobs, WAL and cluster",
		warm: warmSharded, timed: timedSharded, check: checkSharded,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// phase is what a timed phase measured.
type phase struct {
	results []Result
	reqs    []Request // reqs[i] is the request behind results[i]
	// ops is every operation completed in the phase: requests, plus
	// campaign points on sharded-campaign.
	ops int
	// Campaign rounds (sharded-campaign only).
	points      int
	campaign    time.Duration
	reading     time.Duration // the read phases' wall time
	submits     []time.Duration
	pointSHA    map[string]string // cache key -> result_sha from the jobs table
	lastPoints  []Request         // the final round's points, still cached on s0
	roundsCount int
	// clientCPU is the load generator's own CPU time over the phase.
	clientCPU time.Duration
}

// warmRequests sends reqs sequentially to d and returns their bodies,
// recording each answer in the warm-up tally. Every warm-up request is a
// computation, so its answer must say "miss".
func (b *bench) warmRequests(d *daemon, reqs []Request) ([][]byte, error) {
	bodies := make([][]byte, len(reqs))
	for i, r := range reqs {
		res := send(b.client, d.url, r)
		why := verdict(&res, "miss", nil)
		b.warmup.add(why)
		if why != "" {
			return nil, fmt.Errorf("warm-up %s %s on %s: %s", r.Route, r.Body, d.id, why)
		}
		bodies[i] = res.Body
	}
	return bodies, nil
}

// --- hit-hot ---

func warmHot(b *bench) error {
	b.hot = hotSet(b.seed)
	bodies, err := b.warmRequests(b.ds[0], b.hot)
	b.hotBodies = bodies
	return err
}

func timedHot(b *bench, deadline time.Time) (*phase, error) {
	n := len(b.hot)
	at := func(i int) (string, Request) { return b.ds[0].url, b.hot[hotIndex(b.seed, i, n)] }
	res := loop(b.client, deadline, -1, at, func(int) bool { return false }, func(i int, r *Result) {
		r.Mismatch = r.Err == nil && !bytes.Equal(r.Body, b.hotBodies[hotIndex(b.seed, i, n)])
	})
	p := &phase{results: res, ops: len(res)}
	for _, r := range res {
		p.reqs = append(p.reqs, b.hot[hotIndex(b.seed, r.Index, n)])
	}
	return p, nil
}

// checkHot verifies a sample of the warm-up bodies (the bytes every hit
// must repeat) against the in-process result.
func checkHot(b *bench, p *phase) []string {
	var bad []string
	wrong := map[string]string{}
	for k := 0; k < len(b.hot); k += 4 {
		if why := b.againstReference(b.hot[k], b.hotBodies[k]); why != "" {
			wrong[b.hot[k].Key] = why
			bad = append(bad, fmt.Sprintf("hot key %d: %s", k, why))
		}
	}
	// A wrong warm-up body makes every hit that repeats it wrong.
	for i := range p.results {
		if why, ok := wrong[p.reqs[i].Key]; ok && p.results[i].why == "" {
			p.results[i].why = why
		}
	}
	if h := delta(b.before, b.after, "serve_cache_hits_total"); int(h) != len(p.results) {
		bad = append(bad, fmt.Sprintf("%d cache hits counted for %d hit-hot requests", int(h), len(p.results)))
	}
	return bad
}

// --- miss-mix ---

func warmMiss(b *bench) error {
	// One request of each miss-mix kind, clean and light, at seeds the
	// timed phase never uses: every profile the timed phase needs is memoized.
	base := seedBase(b.seed, "miss-warm")
	var reqs []Request
	for k, fault := range []string{"", "light"} {
		for i, sp := range builtins {
			s := base + float64(10*k+i)
			reqs = append(reqs, evalRequest("evaluate", sp, false, s, fault), evalRequest("green500", sp, false, s, fault))
		}
		reqs = append(reqs, compareRequest(builtins, base+float64(10*k+5), fault))
	}
	_, err := b.warmRequests(b.ds[0], reqs)
	return err
}

func timedMiss(b *bench, deadline time.Time) (*phase, error) {
	return b.timedSequence(deadline, func(i int) Request { return missAt(b.seed, i) }), nil
}

// timedSequence drives a workload whose request i is gen(i), keeping the
// sampled bodies for the post-phase byte check.
func (b *bench) timedSequence(deadline time.Time, gen func(i int) Request) *phase {
	at := func(i int) (string, Request) { return b.ds[0].url, gen(i) }
	res := loop(b.client, deadline, -1, at, sampled, nil)
	p := &phase{results: res, ops: len(res)}
	for _, r := range res {
		p.reqs = append(p.reqs, gen(r.Index))
	}
	return p
}

// checkSampled byte-checks every kept body against the in-process result.
func (b *bench) checkSampled(p *phase) []string {
	var bad []string
	for i, r := range p.results {
		if r.Body == nil || !sampled(r.Index) || r.Err != nil {
			continue
		}
		if why := b.againstReference(p.reqs[i], r.Body); why != "" {
			p.results[i].why = why
			bad = append(bad, fmt.Sprintf("request %d (%s): %s", r.Index, p.reqs[i].Route, why))
		}
	}
	return bad
}

func (b *bench) againstReference(r Request, body []byte) string {
	ref, err := reference(context.Background(), b.pool, r)
	if err != nil {
		return fmt.Sprintf("in-process reference failed: %v", err)
	}
	if !bytes.Equal(body, ref) {
		return "body differs from json.MarshalIndent of the in-process result"
	}
	return ""
}

func checkMiss(b *bench, p *phase) []string {
	bad := b.checkSampled(p)
	seen := map[string]bool{}
	for _, r := range p.reqs {
		if seen[r.Key] {
			bad = append(bad, "miss-mix repeated key "+r.Key)
		}
		seen[r.Key] = true
	}
	if h := delta(b.before, b.after, "serve_cache_hits_total"); h != 0 {
		bad = append(bad, fmt.Sprintf("%g cache hits on miss-mix", h))
	}
	if r := delta(b.before, b.after, "serve_admission_rejected_total"); r != 0 {
		bad = append(bad, fmt.Sprintf("%g admission rejections (429) on miss-mix", r))
	}
	if e := delta(b.before, b.after, "serve_cache_evictions_total"); e <= 0 {
		bad = append(bad, "no cache evictions on miss-mix")
	}
	return bad
}

// --- cold-custom ---

func warmCold(b *bench) error {
	// The built-in geometries are profiled, so renamed specs find their
	// geometry memoized and only new geometries pay cache.Profile.
	base := seedBase(b.seed, "cold-warm")
	var reqs []Request
	for i, sp := range builtins {
		reqs = append(reqs, evalRequest("evaluate", sp, false, base+float64(i), ""))
	}
	_, err := b.warmRequests(b.ds[0], reqs)
	return err
}

func timedCold(b *bench, deadline time.Time) (*phase, error) {
	return b.timedSequence(deadline, func(i int) Request { return coldAt(b.seed, i) }), nil
}

func checkCold(b *bench, p *phase) []string {
	bad := b.checkSampled(p)
	known := map[string]bool{}
	for _, sp := range builtins {
		known[geometryKey(sp)] = true
	}
	seen := map[string]bool{}
	for _, r := range p.reqs {
		g := geometryKey(r.Specs[0])
		switch {
		case !r.NewGeometry && !known[g]:
			bad = append(bad, "renamed spec with a non-built-in geometry: "+g)
		case r.NewGeometry && (known[g] || seen[g]):
			bad = append(bad, "new-geometry request reuses a profiled geometry: "+g)
		}
		if r.NewGeometry {
			seen[g] = true
		}
	}
	return bad
}

// --- sharded-campaign ---

func warmSharded(b *bench) error {
	// Each shard computes one evaluate and one green500 per built-in at
	// its own seeds, so both processes hold every campaign profile.
	for k, d := range b.ds {
		base := seedBase(b.seed, "shard-warm") + float64(10*k)
		var reqs []Request
		for i, sp := range builtins {
			reqs = append(reqs, evalRequest("evaluate", sp, false, base+float64(i), ""),
				evalRequest("green500", sp, false, base+float64(i), ""))
		}
		if _, err := b.warmRequests(d, reqs); err != nil {
			return err
		}
	}
	return nil
}

// shardRing is the 2-shard ring the daemons build from -peers (default
// virtual nodes), as loadgen's affinity mode computes it.
var shardRing = cluster.NewRing([]string{"s0", "s1"}, 0)

// settle is the pause between a campaign's end and its read phase, so the
// campaign's trailing work (WAL commits, write-backs, garbage) does not
// land on the timed reads.
const settle = 100 * time.Millisecond

// timedSharded runs campaign rounds until the deadline: submit a sweep to
// s0 and time it to done, then read every point s0 owns from s1, which has
// not cached it, so each read is a peer read-through. (Points owned by s1
// were dispatched there and are cached on both shards.)
func timedSharded(b *bench, deadline time.Time) (*phase, error) {
	p := &phase{pointSHA: map[string]string{}}
	s0, s1 := b.ds[0], b.ds[1]
	for r := 0; time.Now().Before(deadline); r++ {
		spec := campaignRound(b.seed, r)
		t0 := time.Now()
		id, submit, err := submitCampaign(b.client, s0, spec)
		if err != nil {
			return nil, err
		}
		p.submits = append(p.submits, submit)
		if err := waitCampaign(s0, id); err != nil {
			return nil, err
		}
		p.campaign += time.Since(t0)
		st, err := campaignPoints(b.client, s0, id)
		if err != nil {
			return nil, err
		}
		if st.Counts.Done != st.Counts.Total || st.Counts.Quarantined != 0 {
			return nil, fmt.Errorf("campaign %s ended with counts %+v", id, st.Counts)
		}
		p.points += st.Counts.Total
		p.roundsCount++
		var reads []Request
		for _, pt := range st.Points {
			p.pointSHA[pt.Key] = pt.ResultSHA
			if shardRing.Owner(pt.Key) == s0.id {
				reads = append(reads, pointRequest(jobs.Point{Method: pt.Method, Server: pt.Server, Seed: pt.Seed, Profile: pt.Profile}))
			}
		}
		p.lastPoints = reads
		time.Sleep(settle)
		offset := len(p.results)
		at := func(i int) (string, Request) { return s1.url, reads[i] }
		t1 := time.Now()
		res := loop(b.client, time.Now().Add(time.Hour), len(reads), at, func(int) bool { return true }, nil)
		readTime := time.Since(t1)
		p.reading += readTime
		fmt.Fprintf(b.out, "  round %d: %d points in %s, %d peer reads in %s\n", r, st.Counts.Total,
			time.Since(t0).Round(time.Millisecond), len(res), readTime.Round(100*time.Microsecond))
		for _, x := range res {
			p.reqs = append(p.reqs, reads[x.Index])
			x.Index += offset
			p.results = append(p.results, x)
		}
	}
	p.ops = len(p.results) + p.points
	return p, nil
}

func checkSharded(b *bench, p *phase) []string {
	var bad []string
	for i, r := range p.results {
		if r.Err != nil || r.Status != http.StatusOK {
			continue
		}
		sum := sha256.Sum256(r.Body)
		why := ""
		if want := p.pointSHA[p.reqs[i].Key]; hex.EncodeToString(sum[:]) != want {
			why = "body sha differs from the campaign's result_sha"
		} else if sampled(i) {
			why = b.againstReference(p.reqs[i], r.Body)
		}
		if why != "" {
			p.results[i].why = why
			bad = append(bad, fmt.Sprintf("read %d: %s", i, why))
		}
	}
	for _, name := range []string{"jobs_point_retries_total", "jobs_points_quarantined_total"} {
		if v := delta(b.before, b.after, name); v != 0 {
			bad = append(bad, fmt.Sprintf("%s grew by %g", name, v))
		}
	}
	return bad
}

// submitCampaign posts a sweep and returns its id and the round trip.
func submitCampaign(c *http.Client, d *daemon, spec *jobs.SweepSpec) (string, time.Duration, error) {
	t0 := time.Now()
	resp, err := c.Post(d.url+"/v1/jobs", "application/json", bytes.NewReader(mustJSON(spec)))
	if err != nil {
		return "", 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return "", 0, fmt.Errorf("POST /v1/jobs: status %d: %s", resp.StatusCode, body)
	}
	var st jobs.CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return "", 0, err
	}
	return st.ID, rtt, nil
}

// waitCampaign follows the campaign's server-sent events until it is done.
// A stream of its own keeps the status polling off the daemon's books.
func waitCampaign(d *daemon, id string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		switch strings.TrimSpace(strings.TrimPrefix(sc.Text(), "event:")) {
		case "campaign_done":
			return nil
		case "campaign_cancelled":
			return fmt.Errorf("campaign %s was cancelled", id)
		}
	}
	return fmt.Errorf("campaign %s: event stream ended before done: %v", id, sc.Err())
}

func campaignPoints(c *http.Client, d *daemon, id string) (*jobs.CampaignStatus, error) {
	b, status, err := get(c, d.url+"/v1/jobs/"+id+"?points=1")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs/%s: status %d, %v", id, status, err)
	}
	var st jobs.CampaignStatus
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
