package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exact text exposition output: deterministic
// ordering, label rendering, histogram bucket/sum/count lines.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("comm_messages_total", L("op", "bcast")).Add(12)
	r.Counter("comm_messages_total", L("op", "allreduce")).Add(7)
	r.Counter("sim_runs_total").Add(3)
	r.Gauge("power_watts", L("server", "Xeon-E5462")).Set(231.5)
	h := r.Histogram("collective_seconds", []float64{1, 10}, L("op", "barrier"))
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var b bytes.Buffer
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`# TYPE collective_seconds histogram`,
		`collective_seconds_bucket{op="barrier",le="1"} 1`,
		`collective_seconds_bucket{op="barrier",le="10"} 2`,
		`collective_seconds_bucket{op="barrier",le="+Inf"} 3`,
		`collective_seconds_sum{op="barrier"} 55.5`,
		`collective_seconds_count{op="barrier"} 3`,
		`# TYPE comm_messages_total counter`,
		`comm_messages_total{op="allreduce"} 7`,
		`comm_messages_total{op="bcast"} 12`,
		`# TYPE power_watts gauge`,
		`power_watts{server="Xeon-E5462"} 231.5`,
		`# TYPE sim_runs_total counter`,
		`sim_runs_total 3`,
		``,
	}, "\n")
	if got := b.String(); got != want {
		t.Errorf("Prometheus exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestSnapshotJSONRoundTrip: WriteJSON → ParseSnapshot must reproduce the
// snapshot exactly (schema round-trip of the JSON exporter).
func TestSnapshotJSONRoundTrip(t *testing.T) {
	o := New()
	o.Counter("runs_total", L("server", "Opteron-8347")).Add(9)
	o.Gauge("score").Set(0.0639)
	h := o.Histogram("window_samples", []float64{10, 100})
	h.Observe(42)
	h.Observe(420)
	o.Infof("evaluating %s", "Opteron-8347")

	var b bytes.Buffer
	if err := WriteJSON(&b, o); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSnapshot(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := o.Metrics.Snapshot()
	want.Events = o.Log.Events()
	if !reflect.DeepEqual(parsed.Metrics, want.Metrics) {
		t.Errorf("metrics round-trip mismatch:\n got %+v\nwant %+v", parsed.Metrics, want.Metrics)
	}
	if len(parsed.Events) != 1 || parsed.Events[0].Msg != "evaluating Opteron-8347" {
		t.Errorf("events round-trip mismatch: %+v", parsed.Events)
	}

	if _, err := ParseSnapshot([]byte(`{"metrics":[{"name":"x","type":"bogus"}]}`)); err == nil {
		t.Error("unknown metric type should fail to parse")
	}
	if _, err := ParseSnapshot([]byte(`{"metrics":[{"name":"bad name","type":"counter"}]}`)); err == nil {
		t.Error("invalid metric name should fail to parse")
	}
}
