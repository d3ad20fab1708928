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
	"math"

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

// AverageMemory applies the same trim/average to 1 s memory samples.
func AverageMemory(samples []float64) float64 {
	return stats.TrimmedMean(samples, TrimFrac)
}

// PlanStates returns the method's workload list for a server (Table III):
// idle, then EP.C and HPL (half and full memory) at one/half/full cores.
// For the three paper servers, the process counts are those of the
// published Tables IV-VI (the Opteron table uses EP at 1/4/8).
func PlanStates(spec *server.Spec) ([]workload.Model, error) {
	refs := server.ReferencePoints(spec.Name)
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

// Evaluate runs the complete method on a server: execute the plan on the
// simulation engine (meter logging throughout), run the analysis pipeline
// per program, and compute the PPW score.
func Evaluate(spec *server.Spec, seed float64) (*Evaluation, error) {
	return EvaluateWithObs(spec, seed, nil)
}

// trimmedCount returns how many samples the paper's 10% head/tail trim
// drops from a window of n samples (both ends together).
func trimmedCount(n int) int {
	return 2 * stats.TrimCount(n, TrimFrac)
}

// EvaluateWithObs is Evaluate with telemetry: a span per evaluation and one
// per Table III state window (on the virtual clock), plus counters for the
// samples the analysis trim drops. A nil Obs makes it identical to Evaluate.
func EvaluateWithObs(spec *server.Spec, seed float64, o *obs.Obs) (*Evaluation, error) {
	return EvaluateWithPool(spec, seed, o, nil)
}

// EvaluateWithPool is the scheduled form of the method: the plan's states
// are independent programs (Table III), so they fan out on the pool's
// workers, each on an engine forked by state identity, and the merged log
// is reassembled in canonical order — the evaluation is byte-identical at
// every worker count (a nil pool runs sequentially). The analysis pipeline
// over the merged log stays sequential; it is a trivial fraction of the
// work.
func EvaluateWithPool(spec *server.Spec, seed float64, o *obs.Obs, p *sched.Pool) (*Evaluation, error) {
	return evaluateCleanCtx(context.Background(), spec, seed, EvalOptions{Obs: o, Pool: p})
}

// evaluateCleanCtx is the clean-path evaluation body shared by
// EvaluateWithPool and EvaluateCtx; ctx cancellation stops the dispatch of
// pending plan states and fails the evaluation. Only opts.Obs, opts.Pool and
// opts.Flight participate here — the fault machinery belongs to
// evaluateFaultCtx.
func evaluateCleanCtx(ctx context.Context, spec *server.Spec, seed float64, opts EvalOptions) (*Evaluation, error) {
	o, p := opts.Obs, opts.Pool
	// The span carries only identity attrs (never the worker count): its
	// subtree must be byte-identical at any -jobs value.
	tr := tracectx.FromContext(ctx).Child("evaluate "+spec.Name).Attr("server", spec.Name).Attr("seed", seed)
	defer tr.End()
	ctx = tracectx.ContextWith(ctx, tr)
	o.Infof("evaluating %s (seed %g, %d jobs)", spec.Name, seed, p.Workers())

	models, err := PlanStates(spec)
	if err != nil {
		return nil, err
	}
	engine := sim.New(spec, seed)
	engine.Obs = o
	results, merged, err := engine.RunPlanCtx(ctx, models, 30, p)
	if err != nil {
		return nil, err
	}

	ev := &Evaluation{Server: spec.Name}
	var sumG, sumW, sumPPW float64
	var key string
	if opts.Flight != nil {
		key = CanonicalHash(spec, seed, HashOpts{Method: "evaluate"})
	}
	var phases []flight.Phase
	var runEnergy flight.Energy
	analysis := tr.Child("analysis")
	for _, r := range results {
		state := analysis.Child("state "+r.Model.Name).SetVirtual(r.Start, r.End)
		window := meter.Window(merged, r.Start, r.End)
		dropped := trimmedCount(len(window))
		o.Counter("core_window_samples_total").Add(int64(len(window)))
		o.Counter("core_trim_dropped_samples_total").Add(int64(dropped))
		watts := AveragePower(merged, r.Start, r.End)
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
			ph := flightPhase(spec, r, window, watts, dropped)
			emitEnergyMetrics(o, key, spec.Name, ph)
			runEnergy.Add(ph.Energy)
			phases = append(phases, ph)
		}
		state.Attr("watts", watts).Attr("samples", len(window)).Attr("trim_dropped", dropped).End()
		o.Debugf("state %s: %.1f W over %d samples (%d trimmed)",
			r.Model.Name, watts, len(window), dropped)
	}
	analysis.End()
	n := float64(len(ev.Rows))
	ev.AvgGFLOPS = sumG / n
	ev.AvgWatts = sumW / n
	ev.Score = sumPPW / n
	if opts.Flight != nil {
		opts.Flight.Add(flight.Record{
			Method: "evaluate", Server: spec.Name, Seed: seed,
			Key:          key,
			FaultProfile: "none",
			Score:        ev.Score,
			Phases:       phases,
			Energy:       runEnergy,
			Sched:        flight.SchedStats{States: len(models), Completed: len(ev.Rows)},
		})
	}
	o.Gauge("core_score", obs.L("server", spec.Name)).Set(ev.Score)
	o.Infof("evaluated %s: score %.4f over %d states", spec.Name, ev.Score, len(ev.Rows))
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

// Green500 runs the Green500 procedure on a server: launch the meter, run
// HPL configured for peak performance (full cores, full memory), and
// divide Rmax by the average power, ignoring the first and last samples.
func Green500(spec *server.Spec, seed float64) (*Green500Result, error) {
	return Green500WithObs(spec, seed, nil)
}

// Green500WithObs is Green500 with a span around the Rmax run.
func Green500WithObs(spec *server.Spec, seed float64, o *obs.Obs) (*Green500Result, error) {
	return Green500WithPool(spec, seed, o, nil)
}

// Green500WithPool runs the single Rmax measurement as a scheduler job, so
// a comparison's Green500 legs queue alongside its evaluation states and
// show up in the pool's telemetry. One run has nothing to parallelize; the
// pool only provides dispatch and accounting.
func Green500WithPool(spec *server.Spec, seed float64, o *obs.Obs, p *sched.Pool) (*Green500Result, error) {
	return green500CleanCtx(context.Background(), spec, seed, EvalOptions{Obs: o, Pool: p})
}

// green500CleanCtx is the clean-path Green500 body shared by
// Green500WithPool and Green500Ctx.
func green500CleanCtx(ctx context.Context, spec *server.Spec, seed float64, opts EvalOptions) (*Green500Result, error) {
	o, p := opts.Obs, opts.Pool
	tr := tracectx.FromContext(ctx).Child("green500 "+spec.Name).Attr("server", spec.Name).Attr("seed", seed)
	defer tr.End()
	ctx = tracectx.ContextWith(ctx, tr)
	m, err := hpl.NewModel(spec, hpl.Options{Procs: spec.Cores, MemFrac: 0.95})
	if err != nil {
		return nil, err
	}
	engine := sim.New(spec, seed)
	engine.Obs = o
	var run sim.RunResult
	err = p.RunTracedCtx(ctx, "green500", 1, func(jctx context.Context, _ int) error {
		var err error
		run, err = engine.RunCtx(jctx, m, 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	watts := AveragePower(run.PowerLog, run.Start, run.End)
	res := &Green500Result{
		Server:   spec.Name,
		Rmax:     m.GFLOPS,
		AvgWatts: watts,
		PPW:      workload.PPW(m.GFLOPS, watts),
	}
	if opts.Flight != nil {
		window := meter.Window(run.PowerLog, run.Start, run.End)
		key := CanonicalHash(spec, seed, HashOpts{Method: "green500"})
		ph := flightPhase(spec, run, window, watts, trimmedCount(len(window)))
		emitEnergyMetrics(o, key, spec.Name, ph)
		opts.Flight.Add(flight.Record{
			Method: "green500", Server: spec.Name, Seed: seed,
			Key:          key,
			FaultProfile: "none",
			Score:        res.PPW,
			Phases:       []flight.Phase{ph},
			Energy:       ph.Energy,
			Sched:        flight.SchedStats{States: 1, Completed: 1},
		})
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

// Compare evaluates every server under all three methods.
func Compare(specs []*server.Spec, seed float64) (*Comparison, error) {
	return CompareWithObs(specs, seed, nil)
}

// CompareWithObs is Compare with a span per server and per method.
func CompareWithObs(specs []*server.Spec, seed float64, o *obs.Obs) (*Comparison, error) {
	return CompareWithPool(specs, seed, o, nil)
}

// CompareWithPool fans the comparison out across servers × states: each
// server is one scheduler job whose evaluation leg nests a further
// fan-out of its Table III states on the same pool. Per-server seeds
// (seed+i, and +0.5 for the Green500 leg) are assigned by canonical
// server index before dispatch, and the score columns are assembled in
// input order after the barrier, so the comparison is byte-identical at
// every worker count.
func CompareWithPool(specs []*server.Spec, seed float64, o *obs.Obs, p *sched.Pool) (*Comparison, error) {
	return compareCleanCtx(context.Background(), specs, seed, EvalOptions{Obs: o, Pool: p})
}

// compareCleanCtx is the clean-path comparison body shared by
// CompareWithPool and CompareCtx. A comparison emits no record of its own:
// its evaluate and Green500 legs each append theirs (per-leg seeds and
// canonical keys), so a compare flight file reads as the set of runs it
// actually performed.
func compareCleanCtx(ctx context.Context, specs []*server.Spec, seed float64, opts EvalOptions) (*Comparison, error) {
	o, p := opts.Obs, opts.Pool
	tr := tracectx.FromContext(ctx).Child("compare").Attr("servers", len(specs)).Attr("seed", seed)
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
		ev, err := evaluateCleanCtx(jctx, spec, seed+float64(i), opts)
		if err != nil {
			return fmt.Errorf("core: evaluating %s: %w", spec.Name, err)
		}
		g, err := green500CleanCtx(jctx, spec, seed+float64(i)+0.5, opts)
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
	}
	return c, nil
}

// Ranking returns the server names ordered by descending score.
func Ranking(names []string, scores []float64) []string {
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < len(idx); i++ {
		for j := i + 1; j < len(idx); j++ {
			if scores[idx[j]] > scores[idx[i]] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	out := make([]string, len(names))
	for i, k := range idx {
		out[i] = names[k]
	}
	return out
}

// EnergyKJ returns the energy of a row (Eq. 2), for the Fig. 11 analysis.
func (r Row) EnergyKJ() float64 {
	return workload.EnergyKJ(r.Watts, r.DurationSec)
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

// ScoreIsFinite guards against degenerate evaluations in callers.
func (e *Evaluation) ScoreIsFinite() bool {
	return !math.IsNaN(e.Score) && !math.IsInf(e.Score, 0)
}
