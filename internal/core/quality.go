package core

import (
	"fmt"
	"time"

	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/meter"
	"powerbench/internal/obs"
	"powerbench/internal/sched"
)

// This file holds the options every evaluation entry point takes and the
// Quality annotations of the hardened pipeline (DESIGN.md §8): under an
// active fault profile the bodies route every program window through
// meter.Repair, give every run a bounded retry budget, survive permanently
// failed states by reporting them, and thread the resulting Quality into
// the tables. An inactive profile skips all of it, and the Quality stays
// zero.

// EvalOptions bundles the optional machinery of an evaluation: telemetry,
// scheduling, fault injection and flight recording. The zero value runs
// the bare method sequentially.
type EvalOptions struct {
	Obs  *obs.Obs
	Pool *sched.Pool
	// Fault activates chaos injection at the profile's rates. Nil (or an
	// all-zero profile) disables injection and every repair pass with it.
	Fault *fault.Profile
	// Ledger receives the injected-fault counts; nil discards them. Chaos
	// tests pass a shared ledger and reconcile it against the Quality
	// annotations.
	Ledger *fault.Ledger
	// Flight, when non-nil, receives one flight record per evaluation run
	// (and one per leg of a comparison): phase windows, energy attribution,
	// PMU deltas, fault counts and quality annotations, keyed by the run's
	// CanonicalHash. Nil skips record assembly entirely.
	Flight *flight.Recorder
}

// hardenedRetry is the per-run attempt budget under an active fault
// profile.
var hardenedRetry = sched.Retry{Attempts: 3, Backoff: time.Millisecond}

// Quality annotates an evaluation with the data repairs and degradations
// it absorbed. The zero value means a pristine run.
type Quality struct {
	// InvalidSamples counts NaN/Inf meter readings dropped during repair.
	InvalidSamples int
	// DuplicatesDropped counts duplicated meter samples collapsed.
	DuplicatesDropped int
	// SpikesClipped counts readings clipped to the window median.
	SpikesClipped int
	// GapSamplesFilled counts grid points reconstructed by interpolation
	// (dropouts, dropped invalid readings, truncated tails).
	GapSamplesFilled int
	// RunsRetried counts extra run attempts after transient failures.
	RunsRetried int
	// RunsFailed counts runs that exhausted their attempt budget.
	RunsFailed int
	// FailedStates names the plan states excluded from the tables.
	FailedStates []string
	// Notes are human-readable caveats for the report.
	Notes []string
}

// Clean reports whether the evaluation needed no repair or degradation.
func (q *Quality) Clean() bool {
	return q.InvalidSamples == 0 && q.DuplicatesDropped == 0 &&
		q.SpikesClipped == 0 && q.GapSamplesFilled == 0 &&
		q.RunsRetried == 0 && q.RunsFailed == 0 &&
		len(q.FailedStates) == 0 && len(q.Notes) == 0
}

// Summary renders the quality annotations as one line.
func (q *Quality) Summary() string {
	if q.Clean() {
		return "quality: clean"
	}
	return fmt.Sprintf("quality: %d invalid, %d duplicate, %d spike, %d gap-filled samples; %d retried, %d failed runs",
		q.InvalidSamples, q.DuplicatesDropped, q.SpikesClipped, q.GapSamplesFilled,
		q.RunsRetried, q.RunsFailed)
}

// addRepair folds one window's repair report into the quality record.
func (q *Quality) addRepair(rep meter.RepairReport) {
	q.InvalidSamples += rep.Invalid
	q.DuplicatesDropped += rep.Duplicates
	q.SpikesClipped += rep.SpikesClipped
	q.GapSamplesFilled += rep.GapSamplesFilled
}

// addReport accounts one scheduler job report: extra attempts become
// RunsRetried, an exhausted budget becomes RunsFailed with the named state
// and a note.
func (q *Quality) addReport(name string, rep sched.JobReport) {
	if rep.Attempts > 1 {
		q.RunsRetried += rep.Attempts - 1
	}
	if rep.Err != nil {
		q.RunsFailed++
		q.FailedStates = append(q.FailedStates, name)
		q.Notes = append(q.Notes, fmt.Sprintf("state %s failed after %d attempts: %v", name, rep.Attempts, rep.Err))
	} else if rep.Attempts > 1 {
		q.Notes = append(q.Notes, fmt.Sprintf("state %s needed %d attempts", name, rep.Attempts))
	}
}

// notes renders the quality annotations as table note lines.
func (q *Quality) notes() []string {
	if q.Clean() {
		return nil
	}
	out := []string{q.Summary()}
	out = append(out, q.Notes...)
	return out
}

// add folds another run's repair, retry and failure counters in (a
// comparison's Green500 leg into its evaluation leg).
func (q *Quality) add(other Quality) {
	q.InvalidSamples += other.InvalidSamples
	q.DuplicatesDropped += other.DuplicatesDropped
	q.SpikesClipped += other.SpikesClipped
	q.GapSamplesFilled += other.GapSamplesFilled
	q.RunsRetried += other.RunsRetried
	q.RunsFailed += other.RunsFailed
}
