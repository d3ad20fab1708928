package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"powerbench/internal/core"
	"powerbench/internal/obs"
	"powerbench/internal/server"
)

// hitCase is one cache-hit request shape with its allocation ceiling. The
// ceilings count the whole Handler call on an httptest recorder, harness
// included.
type hitCase struct {
	name, route, body string
	maxAllocs         float64
}

// sampledSeed returns the first seed from 1 up whose named Xeon-E5462
// evaluate key the tail sampler keeps (kept true) or drops (kept false) on
// a hit, so both arms of the hit path are measured.
func sampledSeed(t testing.TB, s *Server, kept bool) float64 {
	t.Helper()
	spec := server.XeonE5462()
	for seed := 1.0; seed < 1000; seed++ {
		key := "evaluate|" + core.CanonicalHash(spec, seed, core.HashOpts{Method: "evaluate"})
		if (s.sampleReason(http.StatusOK, false, "hit", 0, key) != "") == kept {
			return seed
		}
	}
	t.Fatalf("no seed below 1000 with kept=%v", kept)
	return 0
}

// hitCases returns the request shapes the hit-path gates cover: named
// evaluate (a key the sampler drops and one it keeps), named green500, a
// three-server compare and a custom-spec evaluate.
func hitCases(t testing.TB, s *Server) []hitCase {
	t.Helper()
	custom := *server.Opteron8347()
	custom.Name = "hit-custom"
	spec, err := json.Marshal(&custom)
	if err != nil {
		t.Fatal(err)
	}
	return []hitCase{
		{"evaluate", "/v1/evaluate", fmt.Sprintf(`{"server":"Xeon-E5462","seed":%g}`, sampledSeed(t, s, false)), 85},
		{"evaluate-kept", "/v1/evaluate", fmt.Sprintf(`{"server":"Xeon-E5462","seed":%g}`, sampledSeed(t, s, true)), 85},
		{"green500", "/v1/green500", `{"server":"Opteron-8347","seed":3}`, 85},
		{"compare", "/v1/compare", `{"servers":["Xeon-E5462","Opteron-8347","Xeon-4870"],"seed":5}`, 110},
		{"custom", "/v1/evaluate", `{"spec":` + string(spec) + `,"seed":7}`, 110},
	}
}

// serveHit runs one request through the handler and returns the recorder.
func serveHit(h http.Handler, c hitCase) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, c.route, strings.NewReader(c.body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// warmHits computes every case once, so later requests are cache hits.
func warmHits(t testing.TB, h http.Handler, cases []hitCase) {
	t.Helper()
	for _, c := range cases {
		if rec := serveHit(h, c); rec.Code != http.StatusOK {
			t.Fatalf("%s warm-up: status %d: %s", c.name, rec.Code, rec.Body)
		}
		if rec := serveHit(h, c); rec.Header().Get(cacheHeader) != "hit" {
			t.Fatalf("%s: second request was %q, not a cache hit", c.name, rec.Header().Get(cacheHeader))
		}
	}
}

// TestHitAllocs gates the allocations of a cache hit through Handler():
// decode, resolve, canonical hash, cache lookup, trace bookkeeping and the
// response write. The count is exact for a fixed request, so the gate needs
// no clock.
func TestHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := hitCases(t, s)
	warmHits(t, h, cases)
	// Collection is off while counting: a GC cycle allocates on its own
	// account, inside the count.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range cases {
		allocs := testing.AllocsPerRun(50, func() { serveHit(h, c) })
		t.Logf("%s: %.0f allocations per hit", c.name, allocs)
		if allocs > c.maxAllocs {
			t.Errorf("%s hit made %.0f allocations, want ≤ %.0f", c.name, allocs, c.maxAllocs)
		}
	}
}

// BenchmarkServeHit times cache hits through Handler() over the gated
// request shapes, one sub-benchmark each, with telemetry on as in the
// daemon.
func BenchmarkServeHit(b *testing.B) {
	s, err := New(Config{Obs: obs.New(), Jobs: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	cases := hitCases(b, s)
	warmHits(b, h, cases)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				serveHit(h, c)
			}
		})
	}
}
