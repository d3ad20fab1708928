package sim

import (
	"testing"

	"powerbench/internal/obs"
	"powerbench/internal/server"
	"powerbench/internal/workload"
)

// BenchmarkObsOverhead compares a run sequence with live metrics and logs
// against the nil-Obs baseline. The CI gate requires the instrumented path
// to stay within 5% of baseline — telemetry must never dominate the
// simulation it observes. (Spans are tracectx's and are priced by the
// tracing gate, BenchmarkEvaluateParallel/jobs4-trace.)
func BenchmarkObsOverhead(b *testing.B) {
	// Paper-scale durations: telemetry cost is per run and per PMU window,
	// so the overhead ratio is measured against a realistic amount of
	// simulated sampling work, not a toy run.
	models := []workload.Model{epModel(1, 1200), epModel(4, 1200), epModel(8, 1200)}
	run := func(b *testing.B, newObs func() *obs.Obs) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			e := New(server.XeonE5462(), 1)
			e.Obs = newObs()
			if _, _, err := e.RunSequence(models, 30); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, func() *obs.Obs { return nil }) })
	b.Run("instrumented", func(b *testing.B) { run(b, obs.New) })
}
