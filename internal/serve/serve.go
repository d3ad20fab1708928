// Package serve is the network face of powerbench: an HTTP/JSON service
// ("powerbenchd") exposing the paper's evaluation pipeline as a queryable
// API, the way production power-telemetry systems serve predictions from a
// central service rather than one-shot batch runs (Sîrbu & Babaoglu's
// queried prediction models, the Cray PMDB central database; PAPERS.md).
//
// The layer is deliberately production-shaped rather than a thin mux:
//
//   - Content-addressed result cache. Responses are cached under
//     core.CanonicalHash keys — a pure function of (spec, seed, options) —
//     with LRU eviction, and a hit returns the exact bytes the miss
//     produced. The pipeline's byte-identical determinism is what makes
//     the cache sound: equal keys provably mean equal responses.
//
//   - Request dedup (singleflight). Concurrent identical requests share
//     one underlying computation; only the first runs the pipeline, the
//     rest wait on its flight and serve the same bytes.
//
//   - Admission control. At most MaxInFlight computations run at once;
//     beyond that the service answers 429 with Retry-After instead of
//     queueing unboundedly. Cache hits and dedup joins bypass admission —
//     they cost microseconds and no simulation work.
//
//   - Deadlines and cancellation. Every request carries a context with a
//     deadline (service default, tightened per-request by timeout_ms); a
//     deadline that expires answers 504 and, when the last waiter gives
//     up, cancels the flight so the scheduler stops dispatching its
//     pending simulation runs (sched.RunRetryAllCtx).
//
//   - Graceful shutdown. Close/Shutdown drain in-flight flights before
//     returning, so a SIGTERM never truncates a computation mid-write.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"powerbench/internal/cluster"
	"powerbench/internal/core"
	"powerbench/internal/fleet"
	"powerbench/internal/flight"
	"powerbench/internal/jobs"
	"powerbench/internal/obs"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

// Config sizes the service. The zero value selects sane defaults.
type Config struct {
	// Obs receives the service and pipeline telemetry (served on /metrics).
	// Nil disables telemetry.
	Obs *obs.Obs
	// Jobs is the per-request scheduler width (0 = one per CPU).
	Jobs int
	// MaxInFlight bounds concurrently computing requests; beyond it the
	// service answers 429. 0 selects GOMAXPROCS.
	MaxInFlight int
	// CacheEntries bounds the result cache (0 selects 512 entries).
	CacheEntries int
	// MaxTimeout is the ceiling on any request deadline; requests may only
	// tighten it via timeout_ms. 0 selects 60s.
	MaxTimeout time.Duration
	// MaxBodyBytes bounds request bodies (0 selects 1 MiB).
	MaxBodyBytes int64
	// FlightDir, when set, persists each computation's flight records as
	// <id>.jsonl under the directory (created if missing) in addition to
	// the in-memory store behind GET /v1/flights/{id}.
	FlightDir string
	// FlightEntries bounds the in-memory flight store (0 selects 256).
	FlightEntries int
	// EnableProfiling mounts net/http/pprof under GET /debug/pprof/.
	EnableProfiling bool
	// TraceEntries bounds the in-memory trace store (0 selects 256).
	TraceEntries int
	// TraceSlow is the wall duration at or above which a trace is always
	// retained by the tail sampler (0 selects 2s).
	TraceSlow time.Duration
	// TraceSampleRate is the fraction of traces kept when no tail rule
	// (error/faulted/slow/cache-miss) applies. 0 selects 0.10; negative
	// values disable probabilistic retention entirely.
	TraceSampleRate float64
	// SLO parameterizes the burn-rate tracker over the /v1 API routes; the
	// zero value selects the obs defaults (99.9% availability, 99% of
	// requests under 500 ms, 5m/1h windows).
	SLO obs.SLOConfig
	// WALDir enables durable sweep campaigns: every POST /v1/jobs state
	// transition journals to a CRC-checked segmented WAL under this
	// directory and a restart resumes unfinished campaigns. Empty keeps
	// the campaign subsystem volatile (campaigns die with the process).
	WALDir string
	// CampaignWorkers bounds concurrently executing campaign points (0
	// selects 2) — a separate budget from MaxInFlight so background
	// sweeps and interactive traffic cannot starve each other.
	CampaignWorkers int
	// MaxCampaignPoints bounds one campaign's expansion (0 selects 10000).
	MaxCampaignPoints int
	// WALFsyncEvery is the WAL group-commit cadence (0 selects 5ms;
	// negative fsyncs every append).
	WALFsyncEvery time.Duration
	// WALSegmentBytes bounds one WAL segment file (0 selects 4 MiB).
	WALSegmentBytes int64
	// Cluster is this shard's view of the fleet: the consistent-hash ring,
	// peer health and the peering client (DESIGN.md §14). Nil runs a
	// standalone cluster of one, which takes none of the peering paths —
	// single-node behavior is the degenerate case, not a separate code
	// path. The server owns the cluster lifecycle: New starts its health
	// loop, Close/Shutdown stop it.
	Cluster *cluster.Cluster
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight > 0 {
		return c.MaxInFlight
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) cacheEntries() int {
	if c.CacheEntries > 0 {
		return c.CacheEntries
	}
	return 512
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout > 0 {
		return c.MaxTimeout
	}
	return 60 * time.Second
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 1 << 20
}

func (c Config) flightEntries() int {
	if c.FlightEntries > 0 {
		return c.FlightEntries
	}
	return 256
}

func (c Config) traceEntries() int {
	if c.TraceEntries > 0 {
		return c.TraceEntries
	}
	return 256
}

func (c Config) traceSlow() time.Duration {
	if c.TraceSlow > 0 {
		return c.TraceSlow
	}
	return 2 * time.Second
}

func (c Config) traceSampleRate() float64 {
	if c.TraceSampleRate != 0 {
		return c.TraceSampleRate
	}
	return 0.10
}

// Server is the powerbenchd service state.
type Server struct {
	cfg     Config
	obs     *obs.Obs
	pool    *sched.Pool
	cache   *resultCache
	flights *flightGroup
	// flightRecs stores flushed flight-record JSONL by flight id.
	flightRecs *resultCache
	// traces is the tail-sampled trace store behind GET /v1/traces.
	traces *traceStore
	// jobs is the durable campaign manager behind POST /v1/jobs.
	jobs *jobs.Manager
	// cluster is the sharding/peering layer; never nil (standalone when
	// unconfigured).
	cluster *cluster.Cluster
	// fleet answers cluster-wide observability queries (federated traces,
	// flight read-through, the /v1/fleet rollup); never nil.
	fleet *fleet.Federator
	// recovery summarizes what the jobs WAL replayed at boot.
	recovery jobs.Recovery
	// draining flips once shutdown starts; /healthz reports it so load
	// balancers stop routing before the listener closes.
	draining atomic.Bool
	// slo tracks request outcomes for the burn-rate gauges (nil without Obs).
	slo *obs.SLOTracker
	// admit is the admission semaphore: send acquires a compute slot,
	// receive releases it.
	admit chan struct{}
	mux   *http.ServeMux

	// baseCtx parents every flight's compute context, so a hard Close can
	// cancel outstanding work.
	baseCtx    context.Context
	cancelBase context.CancelFunc
	// wg tracks flight goroutines for shutdown draining.
	wg sync.WaitGroup

	// noFlightReplication suppresses the flight-record half of the
	// off-owner write-back; a benchmark seam isolating its cost.
	noFlightReplication bool

	// Pipeline seams, overridable by tests.
	evalFn func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error)
	g500Fn func(ctx context.Context, spec *server.Spec, seed float64, opts core.EvalOptions) (*core.Green500Result, error)
	cmpFn  func(ctx context.Context, specs []*server.Spec, seed float64, opts core.EvalOptions) (*core.Comparison, error)
}

// New builds the service. The only failure mode is a WAL directory
// (Config.WALDir) that cannot be opened or replayed.
func New(cfg Config) (*Server, error) {
	return newServer(cfg, nil)
}

// newServer is New with a seam: beforeStart, when not nil, runs on the new
// server just before its campaign manager starts, so a test can install
// pipeline functions before a campaign resumed from the WAL executes.
func newServer(cfg Config, beforeStart func(*Server)) (*Server, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		obs:        cfg.Obs,
		pool:       sched.New(cfg.Jobs, cfg.Obs),
		cache:      newResultCache(cfg.cacheEntries()),
		flights:    newFlightGroup(),
		flightRecs: newResultCache(cfg.flightEntries()),
		traces:     newTraceStore(cfg.traceEntries()),
		admit:      make(chan struct{}, cfg.maxInFlight()),
		baseCtx:    ctx,
		cancelBase: cancel,
		cluster:    cfg.Cluster,
		evalFn:     core.EvaluateCtx,
		g500Fn:     core.Green500Ctx,
		cmpFn:      core.CompareCtx,
	}
	if s.cluster == nil {
		s.cluster = cluster.Standalone("", cfg.Obs)
	}
	s.cluster.Start()
	// The federator reads the live stores through closures, so it sees
	// exactly what the local routes serve — no second bookkeeping path.
	s.fleet = fleet.New(fleet.Config{
		Cluster:      s.cluster,
		Obs:          cfg.Obs,
		LocalTrace:   s.traces.Get,
		LocalListing: s.localListing,
		LocalFlight:  s.localFlight,
		LocalStatus:  s.shardObs,
	})
	if cfg.Obs != nil {
		s.slo = obs.NewSLOTracker(cfg.Obs.Metrics, cfg.SLO)
		// The daemon may be handed a bare registry that never went through
		// the CLI construction path; the build-identity series must exist
		// either way (idempotent when both run).
		obs.PublishBuildInfo(cfg.Obs.Metrics)
	}
	if cfg.FlightDir != "" {
		if err := os.MkdirAll(cfg.FlightDir, 0o755); err != nil {
			s.obs.Infof("flight dir %s: %v (persistence disabled for this run)", cfg.FlightDir, err)
		}
	}
	s.obs.Gauge("serve_admission_capacity").Set(float64(cfg.maxInFlight()))
	// Pre-touch the service counters so the very first scrape already
	// exposes the full SLO-relevant series at zero — burn-rate and error
	// dashboards need absent-vs-zero to be unambiguous.
	for _, name := range []string{
		"serve_cache_hits_total", "serve_cache_misses_total",
		"serve_dedup_joined_total", "serve_admission_rejected_total",
		"serve_flight_abandoned_total", "serve_deadline_expired_total",
		"serve_client_gone_total", "serve_compute_total",
		"serve_compute_errors_total", "serve_cache_evictions_total",
		"serve_flights_recorded_total", "serve_traces_dropped_total",
		"serve_trace_evictions_total",
	} {
		s.obs.Counter(name)
	}
	// The campaign manager shares the service's cache and pipeline seams:
	// its executor is the same cache → dedup → compute path interactive
	// requests take, and WAL recovery pre-warms the result cache with the
	// journaled bodies of every completed point.
	mgr, rec, err := jobs.Open(jobs.Config{
		Obs:             cfg.Obs,
		Dir:             cfg.WALDir,
		Workers:         cfg.CampaignWorkers,
		MaxPoints:       cfg.MaxCampaignPoints,
		SegmentBytes:    cfg.WALSegmentBytes,
		FsyncEvery:      cfg.WALFsyncEvery,
		MaxPointTimeout: cfg.maxTimeout(),
		Exec:            s.execPoint,
		Warm: func(key string, body []byte) {
			s.cache.Put(key, body)
		},
	})
	if err != nil {
		cancel()
		return nil, err
	}
	s.jobs = mgr
	s.recovery = *rec
	if beforeStart != nil {
		beforeStart(s)
	}
	mgr.Start()

	s.mux = http.NewServeMux()
	s.route("POST /v1/evaluate", "/v1/evaluate", s.handleEvaluate)
	s.route("POST /v1/green500", "/v1/green500", s.handleGreen500)
	s.route("POST /v1/compare", "/v1/compare", s.handleCompare)
	s.route("GET /v1/servers", "/v1/servers", s.handleServers)
	s.route("GET /v1/flights/{id}", "/v1/flights", s.handleFlight)
	s.route("GET /v1/traces", "/v1/traces", s.handleTraces)
	s.route("GET /v1/traces/{id}", "/v1/traces", s.handleTrace)
	s.route("POST /v1/jobs", "/v1/jobs", s.handleJobSubmit)
	s.route("GET /v1/jobs", "/v1/jobs", s.handleJobList)
	s.route("GET /v1/jobs/{id}", "/v1/jobs", s.handleJobStatus)
	s.route("DELETE /v1/jobs/{id}", "/v1/jobs", s.handleJobDelete)
	// SSE bypasses the metrics/SLO middleware: those wrappers don't
	// forward http.Flusher, and a long-lived stream would poison the
	// latency histograms anyway.
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	// The peer protocol (cache peering between shards) bypasses the SLO
	// wrapper: a peer miss answers 404 by design, and counting routine
	// misses as availability burn would poison the burn-rate gauges.
	s.mux.Handle("GET /v1/peer/results/{key}", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerGet)))
	s.mux.Handle("PUT /v1/peer/results/{key}", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerPut)))
	// The fleet observability routes (DESIGN.md §15): the peer side answers
	// local stores only (a fan-out never recurses), the public /v1/fleet
	// rollup is an API route like any other.
	s.mux.Handle("GET /v1/peer/traces", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerTraces)))
	s.mux.Handle("GET /v1/peer/traces/{id}", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerTrace)))
	s.mux.Handle("GET /v1/peer/flights/{id}", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerFlightGet)))
	s.mux.Handle("PUT /v1/peer/flights/{id}", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerFlightPut)))
	s.mux.Handle("GET /v1/peer/obs", obs.HTTPMetrics(s.obs, "/v1/peer", http.HandlerFunc(s.handlePeerObs)))
	s.route("GET /v1/fleet", "/v1/fleet", s.handleFleet)
	s.route("GET /healthz", "/healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", obs.HTTPMetrics(s.obs, "/metrics", s.metricsHandler()))
	if cfg.EnableProfiling {
		// The index route is a prefix match, so the per-profile pages
		// (heap, goroutine, block, ...) resolve through it.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Recovery reports what the jobs WAL replayed at boot (zero value when
// WALDir was unset or the journal was empty).
func (s *Server) Recovery() jobs.Recovery { return s.recovery }

// Jobs exposes the campaign manager (tests and the daemon's boot log).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// route registers a handler wrapped in the obs HTTP middleware under a
// fixed route label, with SLO outcome tracking on the API routes.
func (s *Server) route(pattern, label string, h http.HandlerFunc) {
	inner := obs.HTTPMetrics(s.obs, label, h)
	if s.slo == nil {
		s.mux.Handle(pattern, inner)
		return
	}
	s.mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		inner.ServeHTTP(sw, req)
		s.slo.Observe(sw.status, time.Since(start))
	}))
}

// statusWriter captures the first written status code for SLO accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

// metricsHandler serves the live registry; a nil Obs still answers with an
// empty exposition so probes don't 404. Burn-rate gauges are recomputed on
// every scrape, so idle periods decay them toward zero.
func (s *Server) metricsHandler() http.Handler {
	var reg *obs.Registry
	if s.obs != nil {
		reg = s.obs.Metrics
	}
	inner := obs.PrometheusHandler(reg)
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s.slo.Publish()
		inner.ServeHTTP(w, req)
	})
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains gracefully: it waits for every in-flight computation to
// settle, or — if ctx expires first — cancels them (pending simulation
// runs stop dispatching; started ones finish) and then waits. The caller
// must already have stopped accepting new connections (http.Server's
// Shutdown does).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	// Stop probing peers first; /healthz now reports draining, so the
	// peers' own probes shed load off this shard symmetrically.
	s.cluster.Stop()
	start := time.Now()
	defer func() {
		s.obs.Gauge("serve_drain_seconds").Set(time.Since(start).Seconds())
	}()
	// Drain the campaign workers first: in-flight points finish and
	// journal their outcomes, then the WAL commits its checkpoint — the
	// half of the drain a restart actually depends on.
	jerr := s.jobs.Shutdown(ctx)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return jerr
	case <-ctx.Done():
		s.cancelBase()
		<-done
		return ctx.Err()
	}
}

// Close cancels outstanding computations and waits for them to unwind.
func (s *Server) Close() {
	s.draining.Store(true)
	s.cluster.Stop()
	s.jobs.Close()
	s.cancelBase()
	s.wg.Wait()
}

// --- request orchestration: cache → dedup → admission → compute ---

// cacheHeader is the response header reporting how the body was produced:
// "hit" (result cache), "miss" (this request computed it), or "dedup"
// (shared another request's in-flight computation).
const cacheHeader = "X-Powerbench-Cache"

// retryAfterSec is the client backoff hint on 429 responses.
const retryAfterSec = "1"

// computeFn runs one pipeline computation, appending its flight records to
// rec (stored under the request's flight id once the computation settles).
type computeFn func(ctx context.Context, rec *flight.Recorder) (any, error)

// traceTask bundles the trace a flight reports into with the request
// identity the tail sampler needs once it settles.
type traceTask struct {
	tr      *tracectx.Trace
	route   string
	key     string
	faulted bool
}

// serveComputed answers one compute request: serve from cache, else join
// or begin the key's flight under admission control, then wait for the
// flight or the request deadline, whichever first. route labels the trace's
// root span; faulted marks requests running a fault profile, which the tail
// sampler always retains.
func (s *Server) serveComputed(w http.ResponseWriter, req *http.Request, route, key string, faulted bool, timeoutMS int, fn computeFn) {
	// The flight and trace ids are pure functions of the key, so every
	// response path (hit, miss, dedup, even 429) can advertise where the
	// forensics live — and the response traceparent (trace id + root span
	// id, both identity-derived) lets a caller chain its own spans under
	// this request before the computation has even finished.
	tid := tracectx.DeriveID(key)
	tr := newRequestTrace(req, route, tid)
	root := tr.Root()
	w.Header().Set(flightHeader, flightID(key))
	w.Header().Set(traceHeader, tid.String())
	w.Header().Set("Traceparent", tracectx.Format(tid, root.ID(), true))
	cacheSpan := root.Child("cache")
	if body, ok := s.cache.Get(key); ok {
		s.obs.Counter("serve_cache_hits_total").Inc()
		cacheSpan.Attr("result", "hit").End()
		root.End()
		writeBody(w, http.StatusOK, "hit", body)
		s.storeTrace(tr, route, key, http.StatusOK, faulted, "hit", 0)
		return
	}
	s.obs.Counter("serve_cache_misses_total").Inc()
	cacheSpan.Attr("result", "miss").End()

	// Request deadline: the service ceiling, tightened by timeout_ms.
	timeout := s.cfg.maxTimeout()
	if t := time.Duration(timeoutMS) * time.Millisecond; timeoutMS > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(req.Context(), timeout)
	defer cancel()

	f, how := s.joinOrBegin(key, fn, &traceTask{tr: tr, route: route, key: key, faulted: faulted})
	if f == nil {
		// Saturated: reject now rather than queue unboundedly. The rejection
		// trace (root + cache miss + admission verdict) is always retained —
		// a 429 is an error outcome.
		s.obs.Counter("serve_admission_rejected_total").Inc()
		root.Child("admission").Attr("result", "rejected").Attr("capacity", cap(s.admit)).End()
		root.End()
		w.Header().Set("Retry-After", retryAfterSec)
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("service saturated: %d computations in flight", cap(s.admit)))
		s.storeTrace(tr, route, key, http.StatusTooManyRequests, faulted, how, 0)
		return
	}

	select {
	case <-f.done:
		// A flight served by cache peering advertises its origin shard;
		// the beginner's "miss" upgrades to "peer" (a joiner still joined
		// a flight, so it stays "dedup").
		if f.peer != "" {
			w.Header().Set(peerHeader, f.peer)
		}
		if how == "miss" && f.via == "peer" {
			how = "peer"
		}
		writeBody(w, f.status, how, f.body)
	case <-ctx.Done():
		if s.flights.leave(f) {
			s.obs.Counter("serve_flight_abandoned_total").Inc()
		}
		if ctx.Err() == context.DeadlineExceeded {
			s.obs.Counter("serve_deadline_expired_total").Inc()
			writeError(w, http.StatusGatewayTimeout,
				fmt.Sprintf("deadline exceeded after %s", timeout))
			return
		}
		// Client went away; nothing to write.
		s.obs.Counter("serve_client_gone_total").Inc()
	}
}

// joinOrBegin attaches the request to key's flight, starting one (under
// admission control) if none is live. It returns a nil flight when
// admission is saturated; how reports "dedup" for a join and "miss" for a
// fresh flight. Only the flight's beginner donates its trace — trace ids
// are content addresses, so a joiner's trace would be the same trace, and
// the beginner's records the actual computation.
func (s *Server) joinOrBegin(key string, fn computeFn, t *traceTask) (f *serveFlight, how string) {
	if f := s.flights.join(key); f != nil {
		s.obs.Counter("serve_dedup_joined_total").Inc()
		return f, "dedup"
	}
	// No live flight: this request must compute, which needs a slot.
	select {
	case s.admit <- struct{}{}:
	default:
		return nil, ""
	}
	fctx, fcancel := context.WithCancel(s.baseCtx)
	f, created := s.flights.begin(key, fcancel)
	if !created {
		// Raced with another beginner; ride along and return the slot.
		fcancel()
		<-s.admit
		s.obs.Counter("serve_dedup_joined_total").Inc()
		return f, "dedup"
	}
	root := t.tr.Root()
	root.Child("admission").Attr("result", "admitted").Attr("capacity", cap(s.admit)).End()
	root.Child("singleflight").Attr("result", "begin").End()
	s.wg.Add(1)
	go s.runFlight(fctx, f, fn, t)
	return f, "miss"
}

// runFlight executes the computation, publishes the marshaled response,
// fills the cache and flight store on success, releases the admission
// slot, and hands the settled trace to the tail sampler. The trace is
// stored on the flight's outcome, not the waiter's — an abandoned request
// whose computation completed still leaves a full trace behind.
func (s *Server) runFlight(ctx context.Context, f *serveFlight, fn computeFn, t *traceTask) {
	defer s.wg.Done()
	inflight := s.obs.Gauge("serve_compute_inflight")
	inflight.Add(1)
	// settle frees the admission slot before it wakes the waiters: a
	// closed-loop client holding -max-inflight connections sends its next
	// request the moment its reply lands, and must find the slot free.
	settle := func(status int, body []byte) {
		inflight.Add(-1)
		<-s.admit
		s.flights.settle(f, status, body)
	}

	// Ownership check: when the ring assigns this key to a healthy peer,
	// a bounded-deadline fetch from the owner runs before any local
	// compute. The fetch shares the flight's context, so singleflight
	// abandonment (last waiter gone) cancels an in-flight peer call
	// exactly as it cancels a local computation — a slow peer cannot hold
	// a goroutine past the request deadline. Byte-identity makes the
	// splice sound: the owner's cached bytes are the bytes this shard
	// would have computed.
	owner := s.cluster.Owner(f.key)
	if owner != s.cluster.Self() && s.cluster.Healthy(owner) {
		// The peer span is categorized "cluster" so the pipeline hash — the
		// identity of the computation itself — excludes it: a stitched
		// cross-shard tree and a standalone compute hash the same pipeline.
		ps := t.tr.Root().ChildCat("peer", tracectx.CatCluster).Attr("owner", owner)
		fetchStart := time.Now()
		if body, ok := s.cluster.FetchResult(ctx, owner, f.key); ok {
			ps.Attr("result", "hit").End()
			t.tr.Root().End()
			evicted := s.cache.Put(f.key, body)
			s.obs.Counter("serve_cache_evictions_total").Add(int64(evicted))
			s.obs.Gauge("serve_cache_entries").Set(float64(s.cache.Len()))
			f.via, f.peer = "peer", owner
			s.storeTrace(t.tr, t.route, t.key, http.StatusOK, t.faulted, "peer", time.Since(fetchStart))
			settle(http.StatusOK, body)
			return
		}
		ps.Attr("result", "miss").End()
	}

	s.obs.Counter("serve_compute_total").Inc()
	compute := t.tr.Root().Child("compute")
	ctx = tracectx.ContextWith(ctx, compute)
	rec := flight.NewRecorder(0)
	start := time.Now()
	v, err := fn(ctx, rec)
	dur := time.Since(start)
	// The exemplar cross-links this latency observation to its trace, the
	// metrics-to-forensics hop (histogram bucket → exact request).
	s.obs.Histogram("serve_compute_seconds", nil).
		ObserveExemplar(dur.Seconds(), "trace:"+t.tr.ID().String())

	status := http.StatusOK
	var body []byte
	switch {
	case err != nil:
		s.obs.Counter("serve_compute_errors_total").Inc()
		status = http.StatusInternalServerError
		body = errorBody(fmt.Sprintf("evaluation failed: %v", err))
		compute.Attr("error", err.Error())
	default:
		body, err = marshalBody(v)
		if err != nil {
			status = http.StatusInternalServerError
			body = errorBody(fmt.Sprintf("encoding response: %v", err))
		}
	}
	compute.End()
	t.tr.Root().End()
	if status == http.StatusOK {
		evicted := s.cache.Put(f.key, body)
		s.obs.Counter("serve_cache_evictions_total").Add(int64(evicted))
		s.obs.Gauge("serve_cache_entries").Set(float64(s.cache.Len()))
		s.storeFlight(flightID(f.key), rec)
		if owner != s.cluster.Self() {
			// Ownership-violating write: this shard computed a key the
			// ring assigns elsewhere (owner was down or its cache cold).
			// Forward the bytes so future readers find them where the
			// ring sends them; best-effort and off the request path. The
			// flight record rides along so forensics follow the result —
			// a reader the ring routes to the owner finds both.
			fwd := body
			var frec []byte
			if rec.Len() > 0 && !s.noFlightReplication {
				frec = rec.Bytes()
			}
			fid := flightID(f.key)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.cluster.OfferResult(owner, f.key, fwd)
				if len(frec) > 0 {
					s.cluster.OfferFlight(owner, fid, frec)
				}
			}()
		}
	}
	// Store the trace before waking the waiters: a client that reads the
	// X-Powerbench-Trace header off its response can fetch the trace
	// immediately, no settle/store race.
	s.storeTrace(t.tr, t.route, t.key, status, t.faulted, "miss", dur)
	settle(status, body)
}

// --- response helpers ---

// marshalBody renders a response payload as indented JSON with a trailing
// newline (curl-friendly, and the exact bytes the cache stores).
func marshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func errorBody(msg string) []byte {
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	return append(b, '\n')
}

// fieldErrorBody is errorBody plus the offending request field, so a
// client can programmatically map a 400 back to its input instead of
// parsing prose.
func fieldErrorBody(msg, field string) []byte {
	if field == "" {
		return errorBody(msg)
	}
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}{msg, field})
	return append(b, '\n')
}

func writeBody(w http.ResponseWriter, status int, how string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	if how != "" {
		w.Header().Set(cacheHeader, how)
	}
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeBody(w, status, "", errorBody(msg))
}

func writeFieldError(w http.ResponseWriter, status int, msg, field string) {
	writeBody(w, status, "", fieldErrorBody(msg, field))
}
