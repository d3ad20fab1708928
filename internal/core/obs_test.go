package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"powerbench/internal/obs"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

// TestEvaluateWithObsSpans: the evaluation's trace has one state span per
// table row and one run span per executed program, every span hangs off a
// recorded parent, and the obs counters keep consistent trim accounting.
func TestEvaluateWithObsSpans(t *testing.T) {
	o := obs.New()
	tr := tracectx.New(tracectx.DeriveID("evaluate-spans"), "root", "test")
	ctx := tracectx.ContextWith(context.Background(), tr.Root())
	ev, err := EvaluateCtx(ctx, server.XeonE5462(), 1, EvalOptions{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	tr.Root().End()
	doc := tr.Export()
	ids := map[string]bool{}
	for _, sp := range doc.Spans {
		ids[sp.ID] = true
	}
	var states, runs int
	for _, sp := range doc.Spans {
		if strings.HasPrefix(sp.Name, "state ") {
			states++
		}
		if strings.HasPrefix(sp.Name, "run ") {
			runs++
		}
		if sp.Parent != "" && !ids[sp.Parent] {
			t.Errorf("span %s has no recorded parent", sp.Path)
		}
	}
	if states != len(ev.Rows) {
		t.Errorf("state spans = %d, want one per row (%d)", states, len(ev.Rows))
	}
	if runs != len(ev.Rows) {
		t.Errorf("run spans = %d, want one per executed program (%d)", runs, len(ev.Rows))
	}

	windows := o.Counter("core_window_samples_total").Value()
	dropped := o.Counter("core_trim_dropped_samples_total").Value()
	if windows <= 0 || dropped <= 0 {
		t.Errorf("trim accounting: windows=%d dropped=%d, want both positive", windows, dropped)
	}
	if dropped >= windows {
		t.Errorf("trim cannot drop more than it sees: dropped=%d windows=%d", dropped, windows)
	}
	if got := o.Gauge("core_score", obs.L("server", "Xeon-E5462")).Value(); got != ev.Score {
		t.Errorf("core_score gauge = %v, want %v", got, ev.Score)
	}
}

// TestEvaluateWithObsMatchesPlain: telemetry must not perturb the result.
func TestEvaluateWithObsMatchesPlain(t *testing.T) {
	plain, err := EvaluateCtx(context.Background(), server.XeonE5462(), 1, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := EvaluateCtx(context.Background(), server.XeonE5462(), 1, EvalOptions{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Score != instrumented.Score || len(plain.Rows) != len(instrumented.Rows) {
		t.Errorf("telemetry changed the evaluation: %v vs %v", plain.Score, instrumented.Score)
	}
}

// TestEvaluatePrometheusExport: the run's registry renders to the text
// exposition format with the pipeline's metric families present.
func TestEvaluatePrometheusExport(t *testing.T) {
	o := obs.New()
	if _, err := EvaluateCtx(context.Background(), server.XeonE5462(), 1, EvalOptions{Obs: o}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, o.Metrics); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE core_score gauge",
		"# TYPE core_window_samples_total counter",
		"# TYPE sim_runs_total counter",
		`core_score{server="Xeon-E5462"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}
