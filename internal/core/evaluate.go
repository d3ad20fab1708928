// Package core implements the paper's primary contribution: the
// HPC-oriented power-evaluation method of §V — HPL and NPB-EP measured in
// five system states (idle, full/half CPU × full/half memory), the
// WTViewer-style data-analysis pipeline (merge, window, trim 10%, average),
// the PPW score, the Green500 and SPECpower comparison evaluators — and the
// power-regression model of §VI (HPCC training, forward-stepwise fit, NPB
// verification).
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/hpl"
	"powerbench/internal/meter"
	"powerbench/internal/npb"
	"powerbench/internal/obs"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/sim"
	"powerbench/internal/ssj"
	"powerbench/internal/stats"
	"powerbench/internal/tracectx"
	"powerbench/internal/workload"
)

// TrimFrac is the paper's analysis step 3: remove the initial 10% and the
// final 10% of every program's power trace.
const TrimFrac = 0.10

// Row is one line of the paper's Tables IV-VI.
type Row struct {
	Program     string
	GFLOPS      float64
	Watts       float64
	PPW         float64
	MemoryBytes uint64
	DurationSec float64
}

// Evaluation is the result of the full method on one server.
type Evaluation struct {
	Server string
	Rows   []Row
	// AvgGFLOPS and AvgWatts are the arithmetic means over all rows
	// (including idle), as the paper's Average line reports.
	AvgGFLOPS float64
	AvgWatts  float64
	// Score is the arithmetic mean of the per-row PPWs — step 6 of the
	// §V-C2 procedure ("Calculate the arithmetic average for PPWs").
	// Note: the paper's Table IV prints 0.639 for the Xeon-E5462 where its
	// own per-row PPWs average to 0.0639; Tables V and VI are consistent
	// with the mean. See EXPERIMENTS.md for the analysis.
	Score float64
	// Quality records the repairs and degradations the hardened pipeline
	// absorbed; it stays zero on the clean path.
	Quality Quality
}

// AveragePower applies the paper's pipeline to one program window of a
// merged meter log: extract by timestamps, drop 10% head and tail, average.
func AveragePower(log []meter.Sample, start, end float64) float64 {
	return meter.TrimmedMeanWatts(meter.Window(log, start, end), TrimFrac)
}

// PlanStates returns the method's workload list for a server (Table III):
// idle, then EP.C and HPL (half and full memory) at one/half/full cores.
// For the three paper servers, the process counts are those of the
// published Tables IV-VI (the Opteron table uses EP at 1/4/8). Those
// counts follow the content, not the name: a spec that borrows a paper
// server's name but differs from it gets the Table III prescription.
func PlanStates(spec *server.Spec) ([]workload.Model, error) {
	var refs []server.ReferencePoint
	if _, same := BuiltinMatch(spec); same {
		refs = server.ReferencePoints(spec.Name)
	}
	var models []workload.Model
	models = append(models, workload.Idle(120))

	addEP := func(n int) error {
		m, err := npb.NewModel(spec, npb.EP, npb.ClassC, n)
		if err != nil {
			return err
		}
		models = append(models, m)
		return nil
	}
	addHPL := func(n int, frac float64) error {
		m, err := hpl.NewModel(spec, hpl.Options{Procs: n, MemFrac: frac})
		if err != nil {
			return err
		}
		models = append(models, m)
		return nil
	}

	if refs != nil {
		for _, r := range refs {
			var err error
			switch r.Program {
			case "ep.C":
				err = addEP(r.N)
			case "HPL Mh":
				err = addHPL(r.N, 0.5)
			case "HPL Mf":
				err = addHPL(r.N, 0.95)
			}
			if err != nil {
				return nil, err
			}
		}
		return models, nil
	}
	// Custom server: the Table III prescription directly.
	counts := []int{1, spec.HalfCores(), spec.Cores}
	for _, n := range counts {
		if n < 1 {
			continue
		}
		if err := addEP(n); err != nil {
			return nil, err
		}
	}
	for _, frac := range []float64{0.5, 0.95} {
		for _, n := range counts {
			if n < 1 {
				continue
			}
			if err := addHPL(n, frac); err != nil {
				return nil, err
			}
		}
	}
	return models, nil
}

// trimmedCount returns how many samples the paper's 10% head/tail trim
// drops from a window of n samples (both ends together).
func trimmedCount(n int) int {
	return 2 * stats.TrimCount(n, TrimFrac)
}

// EvaluateCtx runs the complete method on a server: execute the plan on
// the simulation engine (meter logging throughout), run the analysis
// pipeline per program, and compute the PPW score. Telemetry is a span per
// evaluation and one per Table III state window (on the virtual clock),
// plus counters for the samples the analysis trim drops; a zero
// EvalOptions runs the bare method.
//
// The plan's states are independent programs (Table III), so they fan out
// on the pool's workers, each on an engine forked by state identity, and
// the merged log is reassembled in canonical order: the evaluation is
// byte-identical at every worker count (a nil pool runs sequentially). The
// analysis over the merged log stays sequential; it is a trivial fraction
// of the work.
//
// An active fault profile hardens the same method: identity-seeded fault
// injection, a bounded retry budget per run, a repair pass over every
// state window, and graceful degradation with Quality annotations — the
// evaluation then fails only when every plan state fails. An inactive
// profile skips all of it, so the clean path fails fast on any run error.
//
// Cancelling ctx stops the dispatch of pending plan states; runs already
// executing finish (the simulation kernels have no preemption points, and
// partial results would break the canonical-order reassembly contract).
// The error then wraps ctx.Err() on the clean path; the hardened path
// records the undispatched states as give-ups.
func EvaluateCtx(ctx context.Context, spec *server.Spec, seed float64, opts EvalOptions) (*Evaluation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o, p := opts.Obs, opts.Pool
	hardened := opts.Fault.Active()
	// The span carries only identity attrs (never the worker count): its
	// subtree must be byte-identical at any -jobs value.
	tr := tracectx.FromContext(ctx).Child("evaluate "+spec.Name).Attr("server", spec.Name).Attr("seed", seed)
	defer tr.End()
	ctx = tracectx.ContextWith(ctx, tr)
	if hardened {
		tr.Attr("fault_profile", opts.Fault.Name)
		o.Infof("evaluating %s (seed %g, %d jobs, fault profile %s)", spec.Name, seed, p.Workers(), opts.Fault.Name)
	} else {
		o.Infof("evaluating %s (seed %g, %d jobs)", spec.Name, seed, p.Workers())
	}

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
	var runLedger *fault.Ledger
	if hardened {
		runLedger = fault.NewLedger()
		engine.Fault = fault.New(opts.Fault, sched.DeriveSeed(seed, spec.Name, "fault"), runLedger)
		engine.Retry = hardenedRetry
	}
	results, merged, reports := engine.RunPlanPartialCtx(ctx, models, 30, p)
	opts.Ledger.AddAll(runLedger)

	ev := &Evaluation{Server: spec.Name}
	for i, rep := range reports {
		if rep.Err != nil && !hardened {
			// The clean path fails fast, exactly as sim.RunPlanCtx does.
			return nil, fmt.Errorf("sim: running %s: %w", models[i].Name, rep.Err)
		}
		ev.Quality.addReport(models[i].Name, rep)
	}

	var sumG, sumW, sumPPW float64
	var key string
	if opts.Flight != nil {
		key = CanonicalHash(spec, seed, HashOpts{Method: "evaluate", FaultProfile: opts.profileName()})
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
		var rep meter.RepairReport
		if hardened {
			window, rep = meter.Repair(window, meter.RepairOpts{
				Start: r.Start, End: r.End, IntervalSec: engine.Meter.IntervalSec,
			})
			// The repair span exists for every state of a hardened run, even
			// with zero actions: the trace shows the pass happened.
			state.Child("repair").
				Attr("invalid", rep.Invalid).Attr("duplicates", rep.Duplicates).
				Attr("spikes_clipped", rep.SpikesClipped).Attr("gap_filled", rep.GapSamplesFilled).
				End()
			ev.Quality.addRepair(rep)
			o.Counter("core_repair_actions_total").Add(int64(rep.Total()))
		}
		dropped := trimmedCount(len(window))
		o.Counter("core_window_samples_total").Add(int64(len(window)))
		o.Counter("core_trim_dropped_samples_total").Add(int64(dropped))
		watts := meter.TrimmedMeanWatts(window, TrimFrac)
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
			// Attribution runs on the analysed (possibly repaired) window:
			// the record describes the trace the analysis actually consumed.
			ph := flightPhase(spec, r, window, watts, dropped)
			emitEnergyMetrics(o, key, spec.Name, ph)
			runEnergy.Add(ph.Energy)
			phases = append(phases, ph)
		}
		state.Attr("watts", watts)
		if hardened {
			state.Attr("repairs", rep.Total())
		} else {
			state.Attr("samples", len(window)).Attr("trim_dropped", dropped)
			o.Debugf("state %s: %.1f W over %d samples (%d trimmed)",
				r.Model.Name, watts, len(window), dropped)
		}
		state.End()
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
		opts.record("evaluate", spec, seed, key, ev.Score, phases, runEnergy, len(models), &ev.Quality, runLedger)
	}
	o.Gauge("core_score", obs.L("server", spec.Name)).Set(ev.Score)
	if hardened {
		o.Infof("evaluated %s: score %.4f over %d/%d states (%s)",
			spec.Name, ev.Score, len(ev.Rows), len(models), ev.Quality.Summary())
	} else {
		o.Infof("evaluated %s: score %.4f over %d states", spec.Name, ev.Score, len(ev.Rows))
	}
	return ev, nil
}

// PaperScores are the final scores as printed in the paper's §V-C3
// comparison (including the Xeon-E5462 figure that is 10× its own table's
// mean PPW).
var PaperScores = map[string]float64{
	"Xeon-E5462": 0.639, "Opteron-8347": 0.0251, "Xeon-4870": 0.0975,
}

// Green500Result is the PPW-at-peak evaluation of §III-B.
type Green500Result struct {
	Server string
	// Rmax is the maximal HPL performance (GFLOPS).
	Rmax float64
	// AvgWatts is the average system power during the Rmax run.
	AvgWatts float64
	// PPW is Rmax / AvgWatts (Eq. 1).
	PPW float64
	// Quality records repairs and retries under an active fault profile.
	Quality Quality
}

// hplPeak is the Green500 Rmax configuration: full cores, full memory.
func hplPeak(spec *server.Spec) (workload.Model, error) {
	return hpl.NewModel(spec, hpl.Options{Procs: spec.Cores, MemFrac: 0.95})
}

// Green500Ctx runs the Green500 procedure on a server: launch the meter,
// run HPL configured for peak performance (full cores, full memory), and
// divide Rmax by the average power, ignoring the first and last samples.
// The single Rmax run is a scheduler job, so a comparison's Green500 legs
// queue alongside its evaluation states and show up in the pool's
// telemetry; one run has nothing to parallelize.
//
// Under an active fault profile the run gets the retry budget, each
// attempt on an engine forked by attempt identity, and its trace the
// repair pass, with the outcome recorded on the result's Quality. A ctx
// cancelled before the run is dispatched fails it with an error wrapping
// ctx.Err().
func Green500Ctx(ctx context.Context, spec *server.Spec, seed float64, opts EvalOptions) (*Green500Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o, p := opts.Obs, opts.Pool
	hardened := opts.Fault.Active()
	tr := tracectx.FromContext(ctx).Child("green500 "+spec.Name).Attr("server", spec.Name).Attr("seed", seed)
	defer tr.End()
	ctx = tracectx.ContextWith(ctx, tr)
	m, err := hplPeak(spec)
	if err != nil {
		return nil, err
	}
	engine := sim.New(spec, seed)
	engine.Obs = o
	var retry sched.Retry
	var runLedger *fault.Ledger
	if hardened {
		tr.Attr("fault_profile", opts.Fault.Name)
		runLedger = fault.NewLedger()
		engine.Fault = fault.New(opts.Fault, sched.DeriveSeed(seed, spec.Name, "g500fault"), runLedger)
		retry = hardenedRetry
	}

	var run sim.RunResult
	reports := p.RunRetry(ctx, "green500", 1, retry, func(jctx context.Context, _, attempt int) error {
		eng := engine
		if hardened {
			eng = engine.Fork("green500", strconv.Itoa(attempt))
		}
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
	res.Quality.addReport("green500", reports[0])
	if err := reports[0].Err; err != nil {
		return nil, fmt.Errorf("core: green500 on %s: %w", spec.Name, err)
	}
	var window []meter.Sample
	if hardened {
		var rep meter.RepairReport
		window, rep = meter.Repair(run.PowerLog, meter.RepairOpts{
			Start: run.Start, End: run.End, IntervalSec: engine.Meter.IntervalSec,
		})
		res.Quality.addRepair(rep)
	} else {
		window = meter.Window(run.PowerLog, run.Start, run.End)
	}
	res.AvgWatts = meter.TrimmedMeanWatts(window, TrimFrac)
	res.PPW = workload.PPW(m.GFLOPS, res.AvgWatts)
	if opts.Flight != nil {
		key := CanonicalHash(spec, seed, HashOpts{Method: "green500", FaultProfile: opts.profileName()})
		ph := flightPhase(spec, run, window, res.AvgWatts, trimmedCount(len(window)))
		emitEnergyMetrics(o, key, spec.Name, ph)
		opts.record("green500", spec, seed, key, res.PPW, []flight.Phase{ph}, ph.Energy, 1, &res.Quality, runLedger)
	}
	return res, nil
}

// Comparison collects the three evaluation methods' scores for a set of
// servers (§V-C3).
type Comparison struct {
	Servers   []string
	Ours      []float64
	Green500  []float64
	SPECpower []float64
	// Quality, when non-nil, aligns with Servers and records each server's
	// repairs/degradations under an active fault profile.
	Quality []Quality
}

// CompareCtx evaluates every server under all three methods. It fans out
// across servers × states: each server is one scheduler job whose
// evaluation leg nests a further fan-out of its Table III states on the
// same pool. Per-server seeds (seed+i, and +0.5 for the Green500 leg) are
// assigned by canonical server index before dispatch, and the score
// columns are assembled in input order after the barrier, so the
// comparison is byte-identical at every worker count. The legs share ctx,
// so one cancellation drains the whole comparison.
//
// A comparison emits no flight record of its own: its evaluate and
// Green500 legs each append theirs (per-leg seeds and canonical keys), so
// a compare flight file reads as the set of runs it actually performed.
// Under an active fault profile both legs run hardened and each server's
// Quality is collected on the comparison, aligned with Servers.
func CompareCtx(ctx context.Context, specs []*server.Spec, seed float64, opts EvalOptions) (*Comparison, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	o, p := opts.Obs, opts.Pool
	hardened := opts.Fault.Active()
	tr := tracectx.FromContext(ctx).Child("compare").Attr("servers", len(specs)).Attr("seed", seed)
	if hardened {
		tr.Attr("fault_profile", opts.Fault.Name)
	}
	defer tr.End()
	ctx = tracectx.ContextWith(ctx, tr)
	type leg struct {
		ev  *Evaluation
		g   *Green500Result
		ssj float64
	}
	legs := make([]leg, len(specs))
	err := p.Run(ctx, "compare", len(specs), func(jctx context.Context, i int) error {
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
		if hardened {
			q := legs[i].ev.Quality
			q.add(legs[i].g.Quality)
			c.Quality = append(c.Quality, q)
		}
	}
	return c, nil
}

// Ranking returns the server names ordered by descending score; tied
// servers keep their input order.
func Ranking(names []string, scores []float64) []string {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	out := make([]string, len(names))
	for i, k := range idx {
		out[i] = names[k]
	}
	return out
}

// RowByName finds a row by program name.
func (e *Evaluation) RowByName(name string) (Row, bool) {
	for _, r := range e.Rows {
		if r.Program == name {
			return r, true
		}
	}
	return Row{}, false
}
