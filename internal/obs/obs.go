// Package obs is the repository's observability substrate: a dependency-free
// telemetry layer with a concurrency-safe metrics registry (counters, gauges,
// histograms with labels) and a leveled structured event log that replaces
// ad-hoc fmt.Printf progress output. Spans are not obs's business: the one
// span model is internal/tracectx, whose identity-derived trees are what
// powerbench -trace-out exports and powerbenchd serves.
//
// The paper's method is itself an instrumentation pipeline — meter samples,
// PMU windows, per-program time windows — and production power-telemetry
// systems (the Cray PMDB validation experience, EfiMon's collection loop; see
// PAPERS.md) show that the measurement infrastructure needs its own counters
// and timestamps to be trustworthy. This package gives the evaluation
// pipeline that layer. Two exporters are provided: Prometheus text
// exposition format and a JSON snapshot.
//
// Every entry point is nil-safe: a nil *Obs (or nil *Registry/*Logger, or
// the nil metric handles they return) turns the whole layer into a no-op
// whose cost is one pointer comparison, so instrumented hot paths need no
// conditional wiring and pay nothing when observability is off.
package obs

import "io"

// Obs bundles the two telemetry facilities handed through the pipeline.
// Either field may be nil; the helper methods below degrade to no-ops.
type Obs struct {
	Metrics *Registry
	Log     *Logger
}

// New returns an Obs with a live registry and a discard logger, the
// configuration used by tests and by callers that only want metrics. CLI
// frontends replace Log with a Logger over their real streams.
func New() *Obs {
	return &Obs{
		Metrics: NewRegistry(),
		Log:     NewLogger(io.Discard, io.Discard, 0),
	}
}

// Counter returns the named counter from the registry, or nil when o or its
// registry is nil (the nil counter's methods are no-ops).
func (o *Obs) Counter(name string, labels ...Label) *Counter {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Counter(name, labels...)
}

// Gauge returns the named gauge, or a no-op nil gauge.
func (o *Obs) Gauge(name string, labels ...Label) *Gauge {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Gauge(name, labels...)
}

// Histogram returns the named histogram, or a no-op nil histogram.
func (o *Obs) Histogram(name string, buckets []float64, labels ...Label) *Histogram {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Histogram(name, buckets, labels...)
}

// Infof logs a progress event (shown with -v).
func (o *Obs) Infof(format string, args ...any) {
	if o != nil {
		o.Log.Infof(format, args...)
	}
}

// Debugf logs a detail event (shown with -vv).
func (o *Obs) Debugf(format string, args ...any) {
	if o != nil {
		o.Log.Debugf(format, args...)
	}
}
