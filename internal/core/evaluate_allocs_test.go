package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

// evaluateAllocsMax is the allocation count of a traced clean evaluation
// of Xeon-E5462 on a two-worker pool, on go1.24.0. The evaluation body is
// shared with the hardened path; this bound keeps the fault machinery from
// adding work to the clean one.
const evaluateAllocsMax = 970

// TestEvaluateAllocs gates the allocations of a clean result-cache miss in
// the core: plan, simulate, merge, analyse and trace one evaluation with
// warm cache profiles. The count is exact for a fixed input, so the gate
// needs no clock.
func TestEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	spec := server.XeonE5462()
	pool := sched.New(2, nil)
	evaluate := func() {
		tr := tracectx.New(tracectx.DeriveID("evaluate-allocs"), "request", "test")
		if _, err := EvaluateCtx(tracectx.ContextWith(context.Background(), tr.Root()), spec, 1, EvalOptions{Pool: pool}); err != nil {
			t.Fatal(err)
		}
	}
	evaluate() // warm the cache profiles
	// Collection is off while counting: a GC cycle allocates on its own
	// account, inside the count.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, evaluate)
	t.Logf("%.0f allocations per clean evaluation", allocs)
	if allocs > evaluateAllocsMax {
		t.Errorf("clean EvaluateCtx made %.0f allocations, want ≤ %d", allocs, evaluateAllocsMax)
	}
}
