package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"powerbench/internal/core"
	"powerbench/internal/fault"
	"powerbench/internal/sched"
)

// verifyEvery samples request indexes for the post-phase byte check: every
// verifyEvery-th computed request, at most maxVerified per run. The sample
// depends on the index alone, so it is the same on every run of a seed.
const (
	verifyEvery = 8
	maxVerified = 48
)

func sampled(i int) bool { return i%verifyEvery == 0 && i/verifyEvery < maxVerified }

// verdict classifies one answer: "" when it is correct, else why not. A
// request fails on a transport error, a non-2xx status, a cache header
// other than the workload's design, or a body unequal to ref (when ref is
// given) or flagged by the inline hit check.
func verdict(res *Result, wantCache string, ref []byte) string {
	switch {
	case res.Err != nil:
		return fmt.Sprintf("transport: %v", res.Err)
	case res.Status < 200 || res.Status > 299:
		return fmt.Sprintf("status %d", res.Status)
	case res.Cache != wantCache:
		return fmt.Sprintf("cache header %q, want %q", res.Cache, wantCache)
	case res.Mismatch:
		return "body differs from the bytes its warm-up miss returned"
	case ref != nil && !bytes.Equal(res.Body, ref):
		return "body differs from the in-process result"
	}
	return ""
}

// reference computes the exact bytes the daemon must answer r with:
// json.MarshalIndent of the in-process core result plus a newline, the
// rendering the daemon caches.
func reference(ctx context.Context, pool *sched.Pool, r Request) ([]byte, error) {
	v, err := computeCore(ctx, pool, r, r.Fault)
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// computeCore runs r's method through the core *Ctx entry point under the
// given fault profile name.
func computeCore(ctx context.Context, pool *sched.Pool, r Request, faultName string) (any, error) {
	prof, err := fault.Parse(faultName)
	if err != nil {
		return nil, err
	}
	opts := core.EvalOptions{Pool: pool, Fault: prof}
	switch r.Method {
	case "evaluate":
		return core.EvaluateCtx(ctx, r.Specs[0], r.Seed, opts)
	case "green500":
		return core.Green500Ctx(ctx, r.Specs[0], r.Seed, opts)
	case "compare":
		return core.CompareCtx(ctx, r.Specs, r.Seed, opts)
	}
	return nil, fmt.Errorf("unknown method %q", r.Method)
}

// tally counts a phase's requests.
type tally struct {
	Sent, OK, Failed int
	reasons          map[string]int
}

func (t *tally) add(why string) {
	t.Sent++
	if why == "" {
		t.OK++
		return
	}
	t.Failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[why]++
}

func (t *tally) String() string {
	s := fmt.Sprintf("sent %d, succeeded %d, failed %d", t.Sent, t.OK, t.Failed)
	for why, n := range t.reasons {
		s += fmt.Sprintf("\n    %d× %s", n, why)
	}
	return s
}
