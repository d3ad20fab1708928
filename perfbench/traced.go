package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"powerbench/internal/cache"
	"powerbench/internal/cluster"
	"powerbench/internal/core"
	"powerbench/internal/meter"
	"powerbench/internal/obs"
	"powerbench/internal/pmu"
	"powerbench/internal/rng"
	"powerbench/internal/serve"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	pbworkload "powerbench/internal/workload"
)

// This file is the traced run: it splits a workload's cost by layer from
// outside the program, by diffing the counters the daemons expose and by
// timing calls into each layer's exported functions on the workload's own
// inputs. Every timed call is a span of the in-memory Recorder; spans are
// written out when the run ends.

// profileAccesses is the stream length pmu profiles a pattern with
// (pmu.profileAccesses), so cache.profile_ms times the call pmu makes.
const profileAccesses = 200_000

// layerStats accumulates one metric's samples.
type layerStats map[string][]float64

func (l layerStats) add(name string, v float64) { l[name] = append(l[name], v) }

// med returns the median of a metric's samples (0 when there are none).
func (l layerStats) med(name string) float64 { return median(l[name]) }

// mallocs reads the process-wide allocation count. It stops the world, so
// callers read it outside the spans they time.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// traceLayers measures the per-layer metrics once the timed phase ended.
func (b *bench) traceLayers(p *phase, budget time.Duration, spanPath string) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	ops := float64(p.ops)

	// Counter deltas over the timed phase.
	d := func(name string) float64 { return delta(b.before, b.after, name) }
	computeMS := 1000 * d("serve_compute_seconds_sum") / d("serve_compute_seconds_count")
	if d("serve_compute_seconds_count") == 0 {
		// No computation in the timed phase (hit-hot): the set-up misses.
		computeMS = 1000 * b.after.family("serve_compute_seconds_sum") / b.after.family("serve_compute_seconds_count")
	}
	put("serve.compute_ms", "ms", computeMS)
	put("serve.cache_hit_ratio", "ratio", ratio(d("serve_cache_hits_total"), d("serve_cache_hits_total")+d("serve_cache_misses_total")))
	put("serve.cache_evictions", "count", d("serve_cache_evictions_total"))
	put("serve.dedup_joins", "count", d("serve_dedup_joined_total"))
	put("serve.admission_rejected", "count", d("serve_admission_rejected_total"))
	put("sched.jobs_per_op", "1/op", d("sched_jobs_total")/ops)
	put("sched.steals_per_op", "1/op", d("sched_jobs_stolen_total")/ops)
	put("meter.samples_per_op", "1/op", d("sim_meter_samples_total")/ops)
	peerTries := d("cluster_peer_hits_total") + d("cluster_peer_misses_total") + d("cluster_peer_errors_total")
	put("cluster.peer_hit_ratio", "ratio", ratio(d("cluster_peer_hits_total"), peerTries))
	put("cluster.points_dispatched", "count", d("cluster_points_dispatched_total"))
	var cacheBytes, traceBytes, traceEntries float64
	for _, dm := range b.ds {
		h, err := getHealth(b.client, dm)
		if err != nil {
			return nil, err
		}
		cacheBytes += float64(h.Cache.Bytes)
		traceBytes += float64(h.Traces.Bytes)
		traceEntries += float64(h.Traces.Entries)
	}
	put("serve.cache_bytes", "bytes", cacheBytes)
	put("serve.trace_bytes_per_entry", "bytes", ratio(traceBytes, traceEntries))
	put("bench.client_cpu_ms_per_op", "ms", ms(p.clientCPU)/ops)

	// Probes against the live daemons.
	st := layerStats{}
	if err := b.probeJobs(p, st); err != nil {
		return nil, err
	}
	afterProbes, err := scrapeMetrics(b.client, b.ds)
	if err != nil {
		return nil, err
	}
	dj := func(name string) float64 { return delta(b.before, afterProbes, name) }
	pointsDone := dj("jobs_points_done_total")
	put("jobs.submit_ms", "ms", st.med("jobs.submit_ms"))
	put("jobs.campaign_points_per_s", "1/s", st.med("jobs.campaign_points_per_s"))
	put("jobs.wal_fsync_ms_per_point", "ms", 1000*ratio(dj("jobs_wal_fsync_seconds_sum"), pointsDone))
	put("jobs.wal_records_per_point", "1/point", ratio(dj("jobs_wal_records_total"), pointsDone))
	put("jobs.retries", "count", dj("jobs_point_retries_total"))
	put("jobs.quarantined", "count", dj("jobs_points_quarantined_total"))
	if err := b.probeCluster(p, st); err != nil {
		return nil, err
	}
	put("cluster.owner_ns", "ns", st.med("cluster.owner_ns"))
	put("cluster.peer_fetch_ms", "ms", st.med("cluster.peer_fetch_ms"))

	// The in-process replay.
	rep, err := b.replay(p, budget, st)
	if err != nil {
		return nil, err
	}
	for _, x := range []struct{ name, unit string }{
		{"serve.handler_us", "us"}, {"serve.handler_allocs", "count"}, {"serve.encode_us", "us"},
		{"server.resolve_us", "us"}, {"core.hash_us", "us"}, {"core.hash_allocs", "count"},
		{"core.plan_us", "us"}, {"sim.run_plan_ms", "ms"}, {"meter.analysis_us", "us"},
		{"core.evaluate_ms", "ms"}, {"core.evaluate_allocs", "count"},
		{"core.green500_ms", "ms"}, {"core.green500_allocs", "count"},
		{"core.compare_ms", "ms"}, {"core.compare_allocs", "count"},
		{"core.evaluate_light_ms", "ms"}, {"core.evaluate_light_allocs", "count"},
		{"pmu.rates_warm_us", "us"}, {"pmu.rates_renamed_us", "us"},
		{"cache.profile_ms", "ms"}, {"cache.profile_allocs", "count"},
	} {
		put(x.name, x.unit, st.med(x.name))
	}
	put("serve.self_us", "us", rep.selfMedian)
	put("http.overhead_us", "us", 1000*ms(medianDur(p.latencies()))-st.med("serve.handler_us"))
	put("bench.trace_overhead_ratio", "ratio", rep.overhead)
	if err := rep.rec.WriteFile(spanPath); err != nil {
		return nil, err
	}

	b.printLayers(m, rep)
	return m, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianDur(s []time.Duration) time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)/2]
}

// probeJobs times campaign submission. sharded-campaign reuses its rounds;
// the other workloads submit five one-point campaigns to the live daemon.
func (b *bench) probeJobs(p *phase, st layerStats) error {
	if p.roundsCount > 0 {
		for _, s := range p.submits {
			st.add("jobs.submit_ms", ms(s))
		}
		st.add("jobs.campaign_points_per_s", float64(p.points)/p.campaign.Seconds())
		return nil
	}
	var spent time.Duration
	for k := 0; k < 5; k++ {
		spec := campaignRound(b.seed, 1000+k)
		spec.Name = fmt.Sprintf("probe-%s-%d", b.w.name, k)
		spec.Servers = []string{builtins[k%3].Name}
		spec.Methods = []string{"evaluate"}
		spec.SeedRange.To = spec.SeedRange.From
		t0 := time.Now()
		id, rtt, err := submitCampaign(b.client, b.ds[0], spec)
		if err != nil {
			return err
		}
		if err := waitCampaign(b.ds[0], id); err != nil {
			return err
		}
		spent += time.Since(t0)
		st.add("jobs.submit_ms", ms(rtt))
	}
	st.add("jobs.campaign_points_per_s", 5/spent.Seconds())
	return nil
}

// probeCluster times the ring lookup over the workload's keys and a peer
// fetch of keys the live daemon holds, through an in-process cluster
// client whose only peer is that daemon.
func (b *bench) probeCluster(p *phase, st layerStats) error {
	keys := make([]string, 0, len(p.reqs))
	for _, r := range p.reqs {
		keys = append(keys, r.Key)
	}
	for rep := 0; rep < 5; rep++ {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < 2*time.Millisecond {
			for _, k := range keys[:min(len(keys), 256)] {
				shardRing.Owner(k)
			}
			calls += min(len(keys), 256)
		}
		st.add("cluster.owner_ns", float64(time.Since(t0).Nanoseconds())/float64(calls))
	}

	owner := b.ds[0]
	var cached []string
	switch {
	case b.w.name == "hit-hot":
		for _, r := range b.hot {
			cached = append(cached, r.Key)
		}
	case p.roundsCount > 0:
		for _, r := range p.lastPoints {
			cached = append(cached, r.Key)
		}
	default:
		// The most recent answers are still in the daemon's LRU cache.
		cached = keys[max(0, len(keys)-64):]
	}
	cl, err := cluster.New(cluster.Config{Self: "perfbench", Peers: []cluster.Peer{{ID: "perfbench"}, {ID: owner.id, URL: owner.url}}})
	if err != nil {
		return err
	}
	for _, k := range cached {
		t0 := time.Now()
		if _, ok := cl.FetchResult(context.Background(), owner.id, k); ok {
			st.add("cluster.peer_fetch_ms", ms(time.Since(t0)))
		}
	}
	return nil
}

// replayResult is what the in-process replay reports besides the spans.
type replayResult struct {
	rec        *Recorder
	requests   int
	selfMedian float64 // serve.self_us, the handler's unattributed remainder
	negative   int     // requests whose remainder is negative
	overhead   float64
}

// replayInputs returns the inputs the replay sends through an in-process
// server, and the ones that warm it first.
func (b *bench) replayInputs(p *phase) (warm, inputs []Request) {
	switch b.w.name {
	case "hit-hot":
		return b.hot, b.hot
	case "miss-mix":
		for i := 0; i < 4096; i++ {
			inputs = append(inputs, missAt(b.seed, i))
		}
	case "cold-custom":
		for i := 0; i < 1024; i++ {
			inputs = append(inputs, coldRequest(b.seed, i, 1))
		}
	default:
		inputs = p.lastPoints
	}
	return nil, inputs
}

// replay sends the workload's inputs through an in-process serve.New and
// calls each layer's exported functions on the same inputs, one span per
// call, until the budget is spent.
func (b *bench) replay(p *phase, budget time.Duration, st layerStats) (*replayResult, error) {
	dir := filepath.Join(b.dir, "replay")
	cli := &obs.CLI{}
	o := cli.NewObs(io.Discard, io.Discard)
	var cl *cluster.Cluster
	var err error
	if b.w.shards > 1 {
		// The replay server stands in for s1, reading s0's points through
		// the live s0 exactly as the timed phase did.
		cl, err = cluster.New(cluster.Config{Self: "s1", Obs: o,
			Peers: []cluster.Peer{{ID: "s0", URL: b.ds[0].url}, {ID: "s1"}}})
		if err != nil {
			return nil, err
		}
	}
	srv, err := serve.New(serve.Config{Obs: o, WALDir: filepath.Join(dir, "wal"), FlightDir: filepath.Join(dir, "flights"), Cluster: cl})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	if cl != nil {
		deadline := time.Now().Add(10 * time.Second)
		for !cl.Healthy("s0") {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("replay server never saw s0 up")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	warm, inputs := b.replayInputs(p)
	for _, r := range warm {
		if code, _, _ := serveInProcess(h, r); code != http.StatusOK {
			return nil, fmt.Errorf("replay warm-up %s: status %d", r.Route, code)
		}
	}
	computeHist := o.Metrics.Histogram("serve_compute_seconds", nil)

	rec := NewRecorder()
	ctx := context.Background()
	var selfs []float64
	negative := 0
	start := time.Now()
	n := 0
	for ; n < len(inputs) && (n < 8 || time.Since(start) < budget); n++ {
		r := inputs[n]
		root := rec.Start("request", -1, n)

		c0, a0 := computeHist.Sum(), mallocs()
		var how string
		var code int
		hs := rec.Do("serve.handler", root, n, func() { code, how, _ = serveInProcess(h, r) })
		st.add("serve.handler_allocs", float64(mallocs()-a0))
		if code != http.StatusOK {
			return nil, fmt.Errorf("replay %s: status %d", r.Route, code)
		}
		handler := rec.spans[hs].Dur()
		computeIn := time.Duration((computeHist.Sum() - c0) * float64(time.Second))
		st.add("serve.handler_us", us(handler))

		var resolveErr error
		rs := rec.Do("server.resolve", root, n, func() { resolveErr = resolve(r) })
		if resolveErr != nil {
			return nil, resolveErr
		}
		a0 = mallocs()
		hsh := rec.Do("core.hash", root, n, func() {
			for _, sp := range r.Specs {
				core.CanonicalHash(sp, r.Seed, core.HashOpts{Method: r.Method, FaultProfile: r.Fault})
			}
		})
		st.add("core.hash_allocs", float64(mallocs()-a0))
		st.add("server.resolve_us", us(rec.spans[rs].Dur()))
		st.add("core.hash_us", us(rec.spans[hsh].Dur()))

		v, err := b.timeCore(ctx, rec, root, n, r, r.Fault, st)
		if err != nil {
			return nil, err
		}
		es := rec.Do("serve.encode", root, n, func() { _, err = json.MarshalIndent(v, "", "  ") })
		if err != nil {
			return nil, err
		}
		encode := rec.spans[es].Dur()
		st.add("serve.encode_us", us(encode))

		if r.Method == "evaluate" {
			if err := b.replicaPipeline(ctx, rec, root, n, r, st); err != nil {
				return nil, err
			}
		}
		rec.End(root)

		// The handler's unattributed remainder: its time minus the layer
		// calls it makes on this path. Negative remainders are kept as is.
		self := handler - rec.spans[rs].Dur() - rec.spans[hsh].Dur()
		switch how {
		case "miss":
			self -= computeIn + encode
		case "peer":
			self -= time.Duration(st.med("cluster.peer_fetch_ms") * float64(time.Millisecond))
		}
		if self < 0 {
			negative++
		}
		selfs = append(selfs, us(self))
	}
	b.fillCoreGaps(ctx, rec, inputs[0], st)
	b.timeProfiles(rec, n, st)

	res := &replayResult{rec: rec, requests: n, selfMedian: median(selfs), negative: negative}
	res.overhead = traceOverhead(h, inputs[:min(n, 16)])
	return res, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// serveInProcess runs one request through the handler on a recorder.
func serveInProcess(h http.Handler, r Request) (int, string, []byte) {
	req := httptest.NewRequest(http.MethodPost, r.Route, bytes.NewReader(r.Body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Header().Get("X-Powerbench-Cache"), w.Body.Bytes()
}

// resolve repeats the serve layer's spec resolution: server.ByName for
// named systems, Spec.Validate for custom ones.
func resolve(r Request) error {
	for _, sp := range r.Specs {
		if r.Custom {
			if err := sp.Validate(); err != nil {
				return err
			}
			continue
		}
		if _, err := server.ByName(sp.Name); err != nil {
			return err
		}
	}
	return nil
}

// coreMetric names the core.* metric a method and fault profile feed.
func coreMetric(method, fault string) string {
	if fault != "" {
		return "core." + method + "_" + fault
	}
	return "core." + method
}

// timeCore calls r's core *Ctx entry point in a span and records its time
// and allocations.
func (b *bench) timeCore(ctx context.Context, rec *Recorder, parent, req int, r Request, fault string, st layerStats) (any, error) {
	name := coreMetric(r.Method, fault)
	var v any
	var err error
	a0 := mallocs()
	s := rec.Do(name, parent, req, func() { v, err = computeCore(ctx, b.pool, r, fault) })
	allocs := mallocs() - a0
	if err != nil {
		return nil, err
	}
	if r.Method == "compare" && fault != "" {
		// No per-layer metric covers the faulted compare.
		return v, nil
	}
	st.add(name+"_ms", ms(rec.spans[s].Dur()))
	st.add(name+"_allocs", float64(allocs))
	return v, nil
}

// fillCoreGaps times the core entry points the replayed inputs did not
// reach (a workload without compares still reports core.compare_ms), on
// the first input's systems and seed.
func (b *bench) fillCoreGaps(ctx context.Context, rec *Recorder, r Request, st layerStats) {
	for _, c := range []struct{ method, fault string }{
		{"evaluate", ""}, {"green500", ""}, {"compare", ""}, {"evaluate", "light"},
	} {
		if len(st[coreMetric(c.method, c.fault)+"_ms"]) > 0 {
			continue
		}
		x := r
		x.Method = c.method
		if c.method == "compare" && len(x.Specs) < 2 {
			x.Specs = builtins
		}
		for k := 0; k < 3; k++ {
			root := rec.Start("request", -1, -1)
			_, _ = b.timeCore(ctx, rec, root, -1, x, c.fault, st)
			rec.End(root)
		}
	}
}

// replicaPipeline rebuilds the clean evaluate body from exported pieces —
// plan, simulation, per-state meter analysis — plus the PMU rate lookups
// the simulation makes, each in its own span under one core.pipeline span.
func (b *bench) replicaPipeline(ctx context.Context, rec *Recorder, parent, req int, r Request, st layerStats) error {
	spec := r.Specs[0]
	pipe := rec.Start("core.pipeline", parent, req)
	defer rec.End(pipe)
	var models []pbworkload.Model
	var err error
	ps := rec.Do("core.plan", pipe, req, func() { models, err = core.PlanStates(spec) })
	if err != nil {
		return err
	}
	st.add("core.plan_us", us(rec.spans[ps].Dur()))
	var results []sim.RunResult
	var merged []meter.Sample
	ss := rec.Do("sim.run_plan", pipe, req, func() {
		results, merged, err = sim.New(spec, r.Seed).RunPlanCtx(ctx, models, 30, b.pool)
	})
	if err != nil {
		return err
	}
	st.add("sim.run_plan_ms", ms(rec.spans[ss].Dur()))
	as := rec.Do("meter.analysis", pipe, req, func() {
		for _, res := range results {
			meter.TrimmedMeanWatts(meter.Window(merged, res.Start, res.End), core.TrimFrac)
		}
	})
	st.add("meter.analysis_us", us(rec.spans[as].Dur())/float64(max(1, len(results))))

	// PMU rates: memoized pairs, then the same models under a fresh name,
	// which misses the name-keyed pmu memo but finds the geometry-keyed
	// cache memo warm.
	alias := renamed(spec, fmt.Sprintf("%s~%d", spec.Name, req))
	for _, v := range []struct {
		metric string
		spec   *server.Spec
	}{{"pmu.rates_warm_us", spec}, {"pmu.rates_renamed_us", alias}} {
		for _, mdl := range models {
			if mdl.Processes == 0 {
				continue // the idle state has no rates to look up
			}
			var rerr error
			s := rec.Do("pmu.rates", pipe, req, func() { _, rerr = pmu.Rates(v.spec, mdl) })
			if rerr != nil {
				return rerr
			}
			st.add(v.metric, us(rec.spans[s].Dur()))
		}
	}
	return nil
}

// timeProfiles times cache.Profile on geometries no one has profiled
// (namespace 2 of the generator), one per built-in, on the pattern of the
// built-in's heaviest plan state.
func (b *bench) timeProfiles(rec *Recorder, req int, st layerStats) {
	for k := 0; k < 3; k++ {
		base := builtins[k]
		models, err := core.PlanStates(base)
		if err != nil || len(models) == 0 {
			continue
		}
		pattern := models[len(models)-1].Char.Pattern
		g := geometry(base, "profile-probe", b.seed, 2, k)
		a0 := mallocs()
		s := rec.Do("cache.profile", -1, req+k, func() {
			_, err = cache.Profile(pattern, profileAccesses, rng.DefaultSeed, g.CacheHierarchy()...)
		})
		if err == nil {
			st.add("cache.profile_ms", ms(rec.spans[s].Dur()))
			st.add("cache.profile_allocs", float64(mallocs()-a0))
		}
	}
}

// traceOverhead compares the cheap per-request calls (a cache-hit handler
// call, resolve, hash) with and without span recording: the median over
// alternating passes of traced time over untraced time.
func traceOverhead(h http.Handler, inputs []Request) float64 {
	pass := func(rec *Recorder) time.Duration {
		t0 := time.Now()
		for i, r := range inputs {
			root := rec.Start("request", -1, i)
			rec.Do("serve.handler", root, i, func() { serveInProcess(h, r) })
			rec.Do("server.resolve", root, i, func() { _ = resolve(r) })
			rec.Do("core.hash", root, i, func() {
				for _, sp := range r.Specs {
					core.CanonicalHash(sp, r.Seed, core.HashOpts{Method: r.Method, FaultProfile: r.Fault})
				}
			})
			rec.End(root)
		}
		return time.Since(t0)
	}
	var ratios []float64
	for k := 0; k < 7; k++ {
		off := pass(nil)
		on := pass(NewRecorder())
		ratios = append(ratios, float64(on)/float64(off))
	}
	return median(ratios)
}

// printLayers prints the per-request layer split of the replay and every
// per-layer metric.
func (b *bench) printLayers(m map[string]metric, rep *replayResult) {
	spans := rep.rec.Spans()
	self := SelfTimes(spans)
	byName := map[string]time.Duration{}
	var roots time.Duration
	for _, s := range spans {
		if s.Req < 0 || s.Req >= rep.requests {
			continue
		}
		byName[s.Name] += self[s.ID]
		if s.Parent < 0 && s.Name == "request" {
			roots += s.Dur()
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	fmt.Fprintf(b.out, "traced replay: %d request(s) in process; self time per request by layer:\n", rep.requests)
	var sum time.Duration
	for _, n := range names {
		sum += byName[n]
		fmt.Fprintf(b.out, "  %-20s %12.2f us  %5.1f%%\n", n, us(byName[n])/float64(rep.requests), 100*float64(byName[n])/float64(roots))
	}
	fmt.Fprintf(b.out, "  %-20s %12.2f us  (self times sum to %.2f us)\n", "request (root)", us(roots)/float64(rep.requests), us(sum)/float64(rep.requests))
	flag := ""
	if rep.negative > 0 {
		flag = fmt.Sprintf("  NEGATIVE on %d of %d requests", rep.negative, rep.requests)
	}
	fmt.Fprintf(b.out, "  serve.self_us (handler minus its layer calls) median %.2f us%s\n", rep.selfMedian, flag)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b.out, "%-30s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}
