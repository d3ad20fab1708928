package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/hpl"
	"powerbench/internal/meter"
	"powerbench/internal/obs"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/ssj"
	"powerbench/internal/tracectx"
	"powerbench/internal/workload"
)

// This file is the graceful-degradation layer of the evaluation pipeline
// (DESIGN.md §8): the *Opts entry points run the same method as their
// unhardened counterparts, but when a fault profile is active they route
// every program window through meter.Repair, give every run a bounded
// retry budget, survive permanently failed states by reporting them, and
// thread the resulting Quality annotations into the tables. With an
// inactive (nil) profile every *Opts function delegates verbatim to the
// clean path, so pristine runs remain byte-identical.

// EvalOptions bundles the optional machinery of an evaluation: telemetry,
// scheduling, and fault injection. The zero value reproduces Evaluate.
type EvalOptions struct {
	Obs  *obs.Obs
	Pool *sched.Pool
	// Fault activates chaos injection at the profile's rates. Nil (or an
	// all-zero profile) disables injection and every repair pass with it.
	Fault *fault.Profile
	// Ledger receives the injected-fault counts; nil allocates a private
	// one. Chaos tests pass a shared ledger and reconcile it against the
	// Quality annotations.
	Ledger *fault.Ledger
	// Retry overrides the per-run attempt budget under an active profile.
	// The zero value selects 3 attempts with 1 ms backoff.
	Retry sched.Retry
	// Flight, when non-nil, receives one flight record per evaluation run
	// (and one per leg of a comparison): phase windows, energy attribution,
	// PMU deltas, fault counts and quality annotations, keyed by the run's
	// CanonicalHash. Nil skips record assembly entirely.
	Flight *flight.Recorder
}

func (o EvalOptions) retry() sched.Retry {
	if o.Retry.Attempts > 0 {
		return o.Retry
	}
	return sched.Retry{Attempts: 3, Backoff: time.Millisecond}
}

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

// addReports accounts every scheduler job report: extra attempts become
// RunsRetried, exhausted budgets become RunsFailed with a named state and
// a note. names[i] labels job i.
func (q *Quality) addReports(names []string, reports []sched.JobReport) {
	for i, rep := range reports {
		if rep.Attempts > 1 {
			q.RunsRetried += rep.Attempts - 1
		}
		if rep.Err != nil {
			q.RunsFailed++
			q.FailedStates = append(q.FailedStates, names[i])
			q.Notes = append(q.Notes, fmt.Sprintf("state %s failed after %d attempts: %v", names[i], rep.Attempts, rep.Err))
		} else if rep.Attempts > 1 {
			q.Notes = append(q.Notes, fmt.Sprintf("state %s needed %d attempts", names[i], rep.Attempts))
		}
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

// EvaluateOpts is Evaluate with optional telemetry, scheduling and fault
// injection. With an inactive fault profile it is EvaluateWithPool — same
// bytes, same errors. With an active profile it runs the hardened pipeline:
// identity-seeded fault injection, bounded per-run retries, per-window
// trace repair, and graceful degradation with Quality annotations. It
// fails only when every plan state fails.
func EvaluateOpts(spec *server.Spec, seed float64, opts EvalOptions) (*Evaluation, error) {
	return EvaluateCtx(context.Background(), spec, seed, opts)
}

// evaluateFaultCtx is the hardened evaluation body shared by EvaluateOpts
// and EvaluateCtx when a fault profile is active.
func evaluateFaultCtx(ctx context.Context, spec *server.Spec, seed float64, opts EvalOptions) (*Evaluation, error) {
	o, p := opts.Obs, opts.Pool
	tr := tracectx.FromContext(ctx).Child("evaluate "+spec.Name).
		Attr("server", spec.Name).Attr("seed", seed).Attr("fault_profile", opts.Fault.Name)
	defer tr.End()
	ctx = tracectx.ContextWith(ctx, tr)
	o.Infof("evaluating %s (seed %g, %d jobs, fault profile %s)", spec.Name, seed, p.Workers(), opts.Fault.Name)

	models, err := PlanStates(spec)
	if err != nil {
		return nil, err
	}
	engine := sim.New(spec, seed)
	engine.Obs = o
	// Injected faults land in a private per-run ledger first: its counts are
	// a pure function of this evaluation's identity, so the flight record
	// stays deterministic, and the caller's shared ledger receives the same
	// totals by merge.
	runLedger := fault.NewLedger()
	engine.Fault = fault.New(opts.Fault, sched.DeriveSeed(seed, spec.Name, "fault"), runLedger)
	engine.Retry = opts.retry()
	results, merged, reports := engine.RunPlanPartialCtx(ctx, models, 30, p)
	opts.Ledger.AddAll(runLedger)

	ev := &Evaluation{Server: spec.Name}
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	ev.Quality.addReports(names, reports)

	var sumG, sumW, sumPPW float64
	var key string
	if opts.Flight != nil {
		key = CanonicalHash(spec, seed, HashOpts{Method: "evaluate", FaultProfile: opts.Fault.Name})
	}
	var phases []flight.Phase
	var runEnergy flight.Energy
	analysis := tr.Child("analysis")
	for i, r := range results {
		if reports[i].Err != nil {
			continue
		}
		state := analysis.Child("state "+r.Model.Name).SetVirtual(r.Start, r.End)
		window := meter.Window(merged, r.Start, r.End)
		repaired, rep := meter.Repair(window, meter.RepairOpts{
			Start: r.Start, End: r.End, IntervalSec: engine.Meter.IntervalSec,
		})
		// The repair span exists for every state of a hardened run, even with
		// zero actions: the trace shows the pass happened.
		state.Child("repair").
			Attr("invalid", rep.Invalid).Attr("duplicates", rep.Duplicates).
			Attr("spikes_clipped", rep.SpikesClipped).Attr("gap_filled", rep.GapSamplesFilled).
			End()
		ev.Quality.addRepair(rep)
		o.Counter("core_window_samples_total").Add(int64(len(repaired)))
		o.Counter("core_repair_actions_total").Add(int64(rep.Total()))
		o.Counter("core_trim_dropped_samples_total").Add(int64(trimmedCount(len(repaired))))
		watts := meter.TrimmedMeanWatts(repaired, TrimFrac)
		row := Row{
			Program:     r.Model.Name,
			GFLOPS:      r.Model.GFLOPS,
			Watts:       watts,
			PPW:         workload.PPW(r.Model.GFLOPS, watts),
			MemoryBytes: r.Model.MemoryBytes,
			DurationSec: r.Model.DurationSec,
		}
		ev.Rows = append(ev.Rows, row)
		sumG += row.GFLOPS
		sumW += row.Watts
		sumPPW += row.PPW
		if opts.Flight != nil {
			// Attribution runs on the repaired window: the record describes
			// the trace the analysis actually consumed.
			ph := flightPhase(spec, r, repaired, watts, trimmedCount(len(repaired)))
			emitEnergyMetrics(o, key, spec.Name, ph)
			runEnergy.Add(ph.Energy)
			phases = append(phases, ph)
		}
		state.Attr("watts", watts).Attr("repairs", rep.Total()).End()
	}
	analysis.End()
	if len(ev.Rows) == 0 {
		return nil, fmt.Errorf("core: evaluating %s: all %d plan states failed", spec.Name, len(models))
	}
	n := float64(len(ev.Rows))
	ev.AvgGFLOPS = sumG / n
	ev.AvgWatts = sumW / n
	ev.Score = sumPPW / n
	if opts.Flight != nil {
		opts.Flight.Add(flight.Record{
			Method: "evaluate", Server: spec.Name, Seed: seed,
			Key:          key,
			FaultProfile: opts.profileName(),
			Score:        ev.Score,
			Phases:       phases,
			Energy:       runEnergy,
			Sched: flight.SchedStats{
				States: len(models), Completed: len(ev.Rows),
				Retried: ev.Quality.RunsRetried, Failed: ev.Quality.RunsFailed,
			},
			Faults:  runLedger.Map(),
			Quality: ev.Quality.flightStats(),
			Notes:   ev.Quality.Notes,
		})
	}
	o.Gauge("core_score", obs.L("server", spec.Name)).Set(ev.Score)
	o.Infof("evaluated %s: score %.4f over %d/%d states (%s)",
		spec.Name, ev.Score, len(ev.Rows), len(models), ev.Quality.Summary())
	return ev, nil
}

// Green500Opts is Green500 with optional fault injection; under an active
// profile the Rmax run gets the retry budget and its trace the repair pass,
// with the outcome recorded on the result's Quality.
func Green500Opts(spec *server.Spec, seed float64, opts EvalOptions) (*Green500Result, error) {
	return Green500Ctx(context.Background(), spec, seed, opts)
}

// green500FaultCtx is the hardened Green500 body shared by Green500Opts and
// Green500Ctx when a fault profile is active.
func green500FaultCtx(ctx context.Context, spec *server.Spec, seed float64, opts EvalOptions) (*Green500Result, error) {
	o, p := opts.Obs, opts.Pool
	tr := tracectx.FromContext(ctx).Child("green500 "+spec.Name).
		Attr("server", spec.Name).Attr("seed", seed).Attr("fault_profile", opts.Fault.Name)
	defer tr.End()
	ctx = tracectx.ContextWith(ctx, tr)
	m, err := hplPeak(spec)
	if err != nil {
		return nil, err
	}
	engine := sim.New(spec, seed)
	engine.Obs = o
	runLedger := fault.NewLedger()
	engine.Fault = fault.New(opts.Fault, sched.DeriveSeed(seed, spec.Name, "g500fault"), runLedger)

	var run sim.RunResult
	reports := p.RunRetryAllTracedCtx(ctx, "green500", 1, opts.retry(), func(jctx context.Context, _, attempt int) error {
		eng := engine.Fork("green500", strconv.Itoa(attempt))
		if eng.Fault.RunFails(attempt) {
			return fault.ErrTransient
		}
		r, err := eng.RunCtx(jctx, m, 0)
		if err != nil {
			return err
		}
		run = r
		return nil
	})
	opts.Ledger.AddAll(runLedger)
	res := &Green500Result{Server: spec.Name, Rmax: m.GFLOPS}
	res.Quality.addReports([]string{"green500"}, reports)
	if reports[0].Err != nil {
		return nil, fmt.Errorf("core: green500 on %s: %w", spec.Name, reports[0].Err)
	}
	repaired, rep := meter.Repair(run.PowerLog, meter.RepairOpts{
		Start: run.Start, End: run.End, IntervalSec: engine.Meter.IntervalSec,
	})
	res.Quality.addRepair(rep)
	res.AvgWatts = meter.TrimmedMeanWatts(repaired, TrimFrac)
	res.PPW = workload.PPW(m.GFLOPS, res.AvgWatts)
	if opts.Flight != nil {
		key := CanonicalHash(spec, seed, HashOpts{Method: "green500", FaultProfile: opts.Fault.Name})
		ph := flightPhase(spec, run, repaired, res.AvgWatts, trimmedCount(len(repaired)))
		emitEnergyMetrics(o, key, spec.Name, ph)
		opts.Flight.Add(flight.Record{
			Method: "green500", Server: spec.Name, Seed: seed,
			Key:          key,
			FaultProfile: opts.profileName(),
			Score:        res.PPW,
			Phases:       []flight.Phase{ph},
			Energy:       ph.Energy,
			Sched: flight.SchedStats{
				States: 1, Completed: 1,
				Retried: res.Quality.RunsRetried, Failed: res.Quality.RunsFailed,
			},
			Faults:  runLedger.Map(),
			Quality: res.Quality.flightStats(),
			Notes:   res.Quality.Notes,
		})
	}
	return res, nil
}

// CompareOpts is Compare with optional fault injection: each server's
// evaluation and Green500 legs run hardened, and the per-server Quality
// records are collected on the comparison (aligned with Servers).
func CompareOpts(specs []*server.Spec, seed float64, opts EvalOptions) (*Comparison, error) {
	return CompareCtx(context.Background(), specs, seed, opts)
}

// compareFaultCtx is the hardened comparison body shared by CompareOpts and
// CompareCtx when a fault profile is active.
func compareFaultCtx(ctx context.Context, specs []*server.Spec, seed float64, opts EvalOptions) (*Comparison, error) {
	o, p := opts.Obs, opts.Pool
	tr := tracectx.FromContext(ctx).Child("compare").
		Attr("servers", len(specs)).Attr("seed", seed).Attr("fault_profile", opts.Fault.Name)
	defer tr.End()
	ctx = tracectx.ContextWith(ctx, tr)
	type leg struct {
		ev  *Evaluation
		g   *Green500Result
		ssj float64
	}
	legs := make([]leg, len(specs))
	err := p.RunTracedCtx(ctx, "compare", len(specs), func(jctx context.Context, i int) error {
		spec := specs[i]
		o.Infof("comparing methods on %s", spec.Name)
		ev, err := EvaluateCtx(jctx, spec, seed+float64(i), opts)
		if err != nil {
			return fmt.Errorf("core: evaluating %s: %w", spec.Name, err)
		}
		g, err := Green500Ctx(jctx, spec, seed+float64(i)+0.5, opts)
		if err != nil {
			return err
		}
		sp, err := ssj.Run(spec)
		if err != nil {
			return err
		}
		legs[i] = leg{ev: ev, g: g, ssj: sp.Score}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c := &Comparison{}
	for i, spec := range specs {
		c.Servers = append(c.Servers, spec.Name)
		c.Ours = append(c.Ours, legs[i].ev.Score)
		c.Green500 = append(c.Green500, legs[i].g.PPW)
		c.SPECpower = append(c.SPECpower, legs[i].ssj)
		q := legs[i].ev.Quality
		q.RunsRetried += legs[i].g.Quality.RunsRetried
		q.RunsFailed += legs[i].g.Quality.RunsFailed
		q.addRepairTotals(legs[i].g.Quality)
		c.Quality = append(c.Quality, q)
	}
	return c, nil
}

// hplPeak is the Green500 Rmax configuration: full cores, full memory.
func hplPeak(spec *server.Spec) (workload.Model, error) {
	return hpl.NewModel(spec, hpl.Options{Procs: spec.Cores, MemFrac: 0.95})
}

// addRepairTotals folds another quality record's repair counters in.
func (q *Quality) addRepairTotals(other Quality) {
	q.InvalidSamples += other.InvalidSamples
	q.DuplicatesDropped += other.DuplicatesDropped
	q.SpikesClipped += other.SpikesClipped
	q.GapSamplesFilled += other.GapSamplesFilled
}
