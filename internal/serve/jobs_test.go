package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"powerbench/internal/core"
	"powerbench/internal/jobs"
	"powerbench/internal/server"
)

// stubEval is a fast, deterministic stand-in for the real pipeline: a pure
// function of (server, seed), so campaign results are byte-identical across
// servers and restarts just like the real evaluation.
func stubEval(_ context.Context, spec *server.Spec, seed float64, _ core.EvalOptions) (*core.Evaluation, error) {
	return &core.Evaluation{Server: spec.Name, Score: seed * 2, AvgWatts: seed + 100}, nil
}

func decodeStatus(t *testing.T, body []byte) jobs.CampaignStatus {
	t.Helper()
	var st jobs.CampaignStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding campaign status: %v\n%s", err, body)
	}
	return st
}

// waitCampaign polls GET /v1/jobs/{id} until the campaign reaches state.
func waitCampaign(t *testing.T, s *Server, id, state string) jobs.CampaignStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rec := do(s, "GET", "/v1/jobs/"+id+"?points=1", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("status poll: %d %s", rec.Code, rec.Body.String())
		}
		st := decodeStatus(t, rec.Body.Bytes())
		if st.State == state {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("campaign %s never reached %s", id, state)
	return jobs.CampaignStatus{}
}

// Invalid sweeps answer 400 with a structured body naming the offending
// field — the satellite contract shared with /v1/evaluate.
func TestJobSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	s.evalFn = stubEval
	cases := []struct {
		name, body string
		want       int
		field      string
	}{
		{"bad profile", `{"fault_profiles":["apocalyptic"]}`, http.StatusBadRequest, "fault_profiles[0]"},
		{"bad method", `{"methods":["compare"]}`, http.StatusBadRequest, "methods[0]"},
		{"bad server", `{"servers":["PDP-11"]}`, http.StatusBadRequest, "servers[0]"},
		{"bad range", `{"seed_range":{"from":1,"to":2,"step":0}}`, http.StatusBadRequest, "seed_range.step"},
		{"unknown field", `{"sevrers":["Xeon-E5462"]}`, http.StatusBadRequest, ""},
		{"bad json", `{"servers":`, http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(s, "POST", "/v1/jobs", tc.body)
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d (%s)", rec.Code, tc.want, rec.Body.String())
			}
			var eb struct {
				Error string `json:"error"`
				Field string `json:"field"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("error body not JSON: %s", rec.Body.String())
			}
			if eb.Error == "" {
				t.Error("error body missing the error message")
			}
			if eb.Field != tc.field {
				t.Errorf("field %q, want %q", eb.Field, tc.field)
			}
		})
	}
}

// The /v1/evaluate satellite: unknown fault profile and malformed fields
// answer 400 (never 500) with the offending field named in the body.
func TestEvaluateFieldErrorBody(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","fault_profile":"apocalyptic"}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	var eb struct {
		Error string `json:"error"`
		Field string `json:"field"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Field != "fault_profile" {
		t.Errorf("field %q, want fault_profile", eb.Field)
	}
	rec = do(s, "POST", "/v1/evaluate", `{"seed":1}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("no-selection status %d, want 400", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Field != "server" {
		t.Errorf("field %q, want server", eb.Field)
	}
}

func TestJobsEndToEndHTTP(t *testing.T) {
	s := newTestServer(t, Config{WALDir: t.TempDir(), WALFsyncEvery: -1, CampaignWorkers: 2})
	s.evalFn = stubEval
	spec := `{"name":"e2e","servers":["Xeon-E5462"],"seeds":[1,2,3]}`

	rec := do(s, "POST", "/v1/jobs", spec)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	st := decodeStatus(t, rec.Body.Bytes())
	if st.Counts.Total != 3 {
		t.Fatalf("campaign has %d points, want 3", st.Counts.Total)
	}
	// Idempotent resubmission answers 200 with the same campaign.
	rec = do(s, "POST", "/v1/jobs", spec)
	if rec.Code != http.StatusOK || decodeStatus(t, rec.Body.Bytes()).ID != st.ID {
		t.Fatalf("resubmit: %d, want 200 with the same campaign", rec.Code)
	}

	final := waitCampaign(t, s, st.ID, jobs.StateDone)
	if final.Counts.Done != 3 || len(final.Points) != 3 {
		t.Fatalf("final counts %+v with %d points", final.Counts, len(final.Points))
	}
	for _, pt := range final.Points {
		if pt.ResultSHA == "" {
			t.Errorf("point %d missing result sha", pt.Index)
		}
	}

	// The campaign shows up in the list and in the health block.
	rec = do(s, "GET", "/v1/jobs", "")
	var list struct {
		Campaigns []jobs.Summary `json:"campaigns"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil || len(list.Campaigns) != 1 {
		t.Fatalf("list: %v %s", err, rec.Body.String())
	}
	rec = do(s, "GET", "/healthz", "")
	var health struct {
		Status string       `json:"status"`
		Jobs   *jobs.Health `json:"jobs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Jobs == nil {
		t.Fatal("healthz missing the jobs block")
	}
	if health.Jobs.ReadOnly || health.Status != "ok" {
		t.Errorf("healthz %s jobs %+v, want ok and writable", health.Status, health.Jobs)
	}

	// A campaign's points landed in the shared result cache: the interactive
	// path serves them as hits.
	rec = do(s, "POST", "/v1/evaluate", `{"server":"Xeon-E5462","seed":2}`)
	if rec.Code != http.StatusOK || rec.Header().Get(cacheHeader) != "hit" {
		t.Errorf("interactive request after campaign: %d cache=%q, want a hit",
			rec.Code, rec.Header().Get(cacheHeader))
	}

	// DELETE on a finished campaign purges it.
	rec = do(s, "DELETE", "/v1/jobs/"+st.ID, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(s, "GET", "/v1/jobs/"+st.ID, ""); rec.Code != http.StatusNotFound {
		t.Errorf("status after purge: %d, want 404", rec.Code)
	}
	if rec := do(s, "GET", "/v1/jobs/c-none", ""); rec.Code != http.StatusNotFound {
		t.Errorf("unknown campaign: %d, want 404", rec.Code)
	}
}

// The tentpole's acceptance scenario over HTTP: kill the daemon mid-
// campaign (abrupt Close — in-flight work cancelled, no graceful drain),
// restart on the same WAL dir, and the campaign completes with the exact
// result bytes an uninterrupted run produces, recomputing nothing that was
// already journaled done.
func TestJobCrashResumeHTTP(t *testing.T) {
	dir := t.TempDir()
	spec := `{"name":"crashme","servers":["Xeon-E5462"],"seeds":[1,2,3]}`

	// Reference: the same sweep on a volatile server, uninterrupted.
	ref := newTestServer(t, Config{CampaignWorkers: 1})
	ref.evalFn = stubEval
	rec := do(ref, "POST", "/v1/jobs", spec)
	refSt := decodeStatus(t, rec.Body.Bytes())
	refFinal := waitCampaign(t, ref, refSt.ID, jobs.StateDone)

	// Run 1: the first point completes; later ones block until the "crash".
	s1, err := New(Config{WALDir: dir, WALFsyncEvery: -1, CampaignWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var calls int32
	var mu sync.Mutex
	gate := make(chan struct{})
	s1.evalFn = func(ctx context.Context, sp *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if !first {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return stubEval(ctx, sp, seed, opts)
	}
	rec = do(s1, "POST", "/v1/jobs", spec)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
	}
	id := decodeStatus(t, rec.Body.Bytes()).ID
	deadline := time.Now().Add(10 * time.Second)
	var run1 jobs.CampaignStatus
	for {
		run1 = decodeStatus(t, do(s1, "GET", "/v1/jobs/"+id+"?points=1", "").Body.Bytes())
		if run1.Counts.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no point completed before the crash")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.Close() // the crash: no checkpoint, in-flight point cancelled mid-compute

	// Run 2: a fresh server on the same WAL dir resumes the campaign.
	// The seam goes in before the manager starts: the resumed campaign's
	// points are dispatched the moment it does.
	seedsComputed := map[float64]int{}
	s2, err := newServer(Config{WALDir: dir, WALFsyncEvery: -1, CampaignWorkers: 1}, func(s *Server) {
		s.evalFn = func(ctx context.Context, sp *server.Spec, seed float64, opts core.EvalOptions) (*core.Evaluation, error) {
			mu.Lock()
			seedsComputed[seed]++
			mu.Unlock()
			return stubEval(ctx, sp, seed, opts)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s2.Close)
	boot := s2.Recovery()
	if boot.DonePoints != run1.Counts.Done || boot.Resumed != 1 || boot.Corrupt {
		t.Fatalf("recovery %+v, want %d done points in 1 resumed campaign",
			boot, run1.Counts.Done)
	}

	final := waitCampaign(t, s2, id, jobs.StateDone)
	if final.Counts.Done != 3 || final.Counts.Computed != 3 || final.Counts.Cached != 0 {
		t.Fatalf("final counts %+v, want 3 done all computed exactly once", final.Counts)
	}
	// No completed point computed twice: the seeds journaled done in run 1
	// never reached the run-2 pipeline.
	mu.Lock()
	for _, pt := range run1.Points {
		if pt.State == "done" && seedsComputed[pt.Seed] != 0 {
			t.Errorf("seed %v recomputed after recovery", pt.Seed)
		}
	}
	for seed, n := range seedsComputed {
		if n != 1 {
			t.Errorf("seed %v computed %d times in run 2", seed, n)
		}
	}
	mu.Unlock()
	// Byte-identical results: every point's sha matches the uninterrupted
	// reference run.
	for i, pt := range final.Points {
		if pt.ResultSHA != refFinal.Points[i].ResultSHA {
			t.Errorf("point %d sha %s differs from the uninterrupted run's %s",
				i, pt.ResultSHA, refFinal.Points[i].ResultSHA)
		}
	}
}

// A subscriber attaching after completion still receives the terminal
// snapshot over SSE.
func TestJobEventsTerminalSnapshot(t *testing.T) {
	s := newTestServer(t, Config{WALDir: t.TempDir(), WALFsyncEvery: -1})
	s.evalFn = stubEval
	rec := do(s, "POST", "/v1/jobs", `{"servers":["Xeon-E5462"],"seeds":[7]}`)
	st := decodeStatus(t, rec.Body.Bytes())
	waitCampaign(t, s, st.ID, jobs.StateDone)

	rec = do(s, "GET", "/v1/jobs/"+st.ID+"/events", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	if !strings.Contains(body, "event: campaign_done") {
		t.Errorf("terminal snapshot missing campaign_done event:\n%s", body)
	}
}
