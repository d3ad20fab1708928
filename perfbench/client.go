package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the load generator's connection count: a closed loop of two
// callers, one per vCPU of the reference host, each waiting for its reply
// before sending the next request (CLI scripts, notebooks and campaign
// clients all wait).
const conns = 2

// newClient returns an HTTP client that keeps at most conns connections
// per daemon.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// Result is the outcome of one timed request. The body is kept only for
// requests the post-phase verifier samples.
type Result struct {
	Index   int
	End     time.Time
	Latency time.Duration
	Status  int
	Cache   string // X-Powerbench-Cache
	Err     error
	Body    []byte
	// Mismatch is set by an inline check (hit bodies against the bytes
	// their warm-up returned).
	Mismatch bool
	// why is the post-phase verdict: empty when the answer is correct.
	why string
}

// send issues one request and reads the whole answer.
func send(c *http.Client, base string, r Request) Result {
	start := time.Now()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, base+r.Route, bytes.NewReader(r.Body))
	if err != nil {
		return Result{Err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return Result{Err: err, End: time.Now(), Latency: time.Since(start)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	return Result{
		End:     end,
		Latency: end.Sub(start),
		Status:  resp.StatusCode,
		Cache:   resp.Header.Get("X-Powerbench-Cache"),
		Err:     err,
		Body:    body,
	}
}

// loop runs the closed loop: conns workers take request indexes from one
// shared counter until the deadline passes or limit requests were taken
// (limit < 0: no limit). at(i) names request i and its target; keep
// decides whether a result's body is retained; check runs an inline
// verification on the body before it is dropped.
func loop(c *http.Client, deadline time.Time, limit int,
	at func(i int) (string, Request), keep func(i int) bool, check func(i int, res *Result)) []Result {
	var next atomic.Int64
	var mu sync.Mutex
	var out []Result
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []Result
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if limit >= 0 && i >= limit {
					break
				}
				base, r := at(i)
				res := send(c, base, r)
				res.Index = i
				if check != nil {
					check(i, &res)
				}
				if !keep(i) {
					res.Body = nil
				}
				mine = append(mine, res)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// percentile returns the nearest-rank p-quantile of sorted latencies and
// whether at least ten samples lie beyond it, the rule for reporting it.
func percentile(sorted []time.Duration, p float64) (time.Duration, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
	return sorted[idx], n-(idx+1) >= 10
}
