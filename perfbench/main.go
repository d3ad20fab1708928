// Command perfbench is powerbench's repository benchmark. It boots the
// shipped powerbenchd binary in fresh processes, drives it from one
// closed-loop load generator with two connections, verifies every answer,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// split) followed by one JSON result line. README.md in this directory
// describes the workloads and the metric map.
//
// Usage (from the repository root, after run.sh has built both binaries):
//
//	perfbench -workload hit-hot -seed 1 -seconds 10 -trace 0 \
//	    -daemon .bench_build/powerbenchd -workdir .bench_build
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"powerbench/internal/sched"
)

// setups is how many times a run boots and warms its deployment; setup_s
// is the median. The last deployment serves the timed phase.
const setups = 5

// bench is one run's state.
type bench struct {
	w      *workload
	seed   int64
	client *http.Client
	ds     []*daemon
	// started is every daemon the run booted, for the last-resort cleanup.
	started []*daemon
	// pool runs the in-process reference computations.
	pool *sched.Pool
	// hot and hotBodies are hit-hot's working set and the bytes its
	// warm-up misses returned.
	hot       []Request
	hotBodies [][]byte
	warmup    tally
	// before and after are the daemons' /metrics around the timed phase.
	before, after scrape
	out           io.Writer
	// dir holds this run's daemon and replay data.
	dir string
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (hit-hot, miss-mix, cold-custom, sharded-campaign)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	traceMode := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics instead of the end-to-end ones")
	daemonBin := fs.String("daemon", ".bench_build/powerbenchd", "powerbenchd binary to boot")
	workdir := fs.String("workdir", ".bench_build", "directory for per-run daemon data and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (hit-hot|miss-mix|cold-custom|sharded-campaign), -seconds > 0, -trace 0|1\n")
		return 2
	}
	if _, err := os.Stat(*daemonBin); err != nil {
		fmt.Fprintf(stderr, "perfbench: daemon binary: %v\n", err)
		return 1
	}
	runDir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	b := &bench{w: w, seed: *seed, client: newClient(), pool: sched.New(0, nil), out: stdout, dir: runDir}
	defer b.killLeftovers()
	res, err := b.run(*daemonBin, runDir, *workdir, time.Duration(*seconds*float64(time.Second)), *traceMode == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// run executes one benchmark run: set-up (several times), the timed phase,
// verification, the traced replay when asked, and the drain.
func (b *bench) run(bin, runDir, workdir string, dur time.Duration, traced bool) (*result, error) {
	fmt.Fprintf(b.out, "workload %s (seed %d, %s, %d connection(s), closed loop): %s\n", b.w.name, b.seed, dur, conns, b.w.why)
	var setupTimes []float64
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		ds, err := bootDaemons(bin, filepath.Join(runDir, fmt.Sprintf("deploy%d", k)), b.w.shards)
		if err != nil {
			return nil, err
		}
		b.ds = ds
		b.started = append(b.started, ds...)
		err = waitReady(b.client, ds, 60*time.Second)
		if err == nil {
			err = b.w.warm(b)
		}
		if err != nil {
			stopAll(ds)
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if k < setups-1 {
			if err := stopAll(ds); err != nil {
				return nil, err
			}
		}
	}
	fmt.Fprintf(b.out, "phase setup:    %d deployment(s), warm-up requests %s\n", setups, &b.warmup)

	m, timed, fails, err := b.measure(dur)
	if err != nil {
		stopAll(b.ds)
		return nil, err
	}
	var layers map[string]metric
	if traced {
		layers, err = b.traceLayers(timed, dur/2, filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.json", b.w.name, b.seed)))
		if err != nil {
			stopAll(b.ds)
			return nil, err
		}
	}
	drain := "clean"
	if err := stopAll(b.ds); err != nil {
		fails = append(fails, "drain: "+err.Error())
		drain = "NOT clean"
	}
	fmt.Fprintf(b.out, "phase drain:    SIGTERM to %d daemon(s), %s\n", len(b.ds), drain)
	for _, f := range fails {
		fmt.Fprintf(b.out, "FAILED: %s\n", f)
	}
	setupS := median(setupTimes)
	m["setup_s"] = metric{setupS, "s"}
	fmt.Fprintf(b.out, "setup_s               %.4f s   (median of %v)\n", setupS, setupTimes)

	res := &result{
		Correct:   len(fails) == 0,
		Attempted: b.warmup.Sent + len(timed.results),
		Failed:    b.warmup.Failed + countFailed(timed),
		Metrics:   m,
	}
	if traced {
		res.Metrics = layers
	}
	return res, nil
}

// killLeftovers kills any daemon an error path left running.
func (b *bench) killLeftovers() {
	for _, d := range b.started {
		if !d.exited() {
			d.kill()
		}
	}
}

func countFailed(p *phase) int {
	n := 0
	for _, r := range p.results {
		if r.why != "" {
			n++
		}
	}
	return n
}

// measure runs the timed phase and computes the end-to-end metrics. It
// returns the metrics, the phase, and every verification failure.
func (b *bench) measure(dur time.Duration) (map[string]metric, *phase, []string, error) {
	var err error
	if b.before, err = scrapeMetrics(b.client, b.ds); err != nil {
		return nil, nil, nil, err
	}
	cpu0, err := daemonsCPU(b.ds)
	if err != nil {
		return nil, nil, nil, err
	}
	client0 := selfCPU()
	start := time.Now()
	p, err := b.w.timed(b, start.Add(dur))
	if err != nil {
		return nil, nil, nil, err
	}
	wall := time.Since(start)
	clientCPU := selfCPU() - client0
	cpu1, err := daemonsCPU(b.ds)
	if err != nil {
		return nil, nil, nil, err
	}
	rss, err := peakRSS(b.ds)
	if err != nil {
		return nil, nil, nil, err
	}
	if b.after, err = scrapeMetrics(b.client, b.ds); err != nil {
		return nil, nil, nil, err
	}
	if len(p.results) == 0 {
		return nil, nil, nil, errors.New("the timed phase completed no request")
	}
	p.clientCPU = clientCPU

	// Verification runs after the phase, so it adds no load during it.
	for i := range p.results {
		p.results[i].why = verdict(&p.results[i], b.w.want, nil)
	}
	fails := b.w.check(b, p)
	var t tally
	for _, r := range p.results {
		t.add(r.why)
	}
	if t.Failed > 0 {
		fails = append(fails, fmt.Sprintf("%d of %d timed requests failed", t.Failed, t.Sent))
	}
	fmt.Fprintf(b.out, "phase timed:    %s\n", &t)
	if p.roundsCount > 0 {
		fmt.Fprintf(b.out, "phase campaign: %d round(s), %d point(s) done in %s\n", p.roundsCount, p.points, p.campaign.Round(time.Millisecond))
	}
	fmt.Fprintf(b.out, "phase verify:   %d check failure(s)\n", len(fails))

	lat := p.latencies()
	printByRoute(b.out, p)
	m := map[string]metric{}
	// Throughput counts every completed operation over the whole phase. On
	// sharded-campaign that is campaign points plus peer reads: the reads
	// alone fill about a second of a run, too little to measure steadily
	// on a shared host; their rate is printed below.
	m["throughput_rps"] = metric{float64(t.OK+p.points) / wall.Seconds(), "1/s"}
	for _, q := range []struct {
		name string
		p    float64
	}{{"latency_p50_ms", 0.50}, {"latency_p90_ms", 0.90}, {"latency_p99_ms", 0.99}} {
		v, ok := percentile(lat, q.p)
		if !ok {
			fmt.Fprintf(b.out, "%-21s not reported: fewer than 10 of %d samples lie beyond it\n", q.name, len(lat))
			continue
		}
		fmt.Fprintf(b.out, "%-21s %.4f ms   (%d samples)\n", q.name, ms(v), len(lat))
		if q.name == "latency_p50_ms" {
			m[q.name] = metric{ms(v), "ms"}
		}
	}
	m["cpu_ms_per_op"] = metric{ms(cpu1-cpu0) / float64(p.ops), "ms"}
	m["daemon_rss_mb"] = metric{rss, "MiB"}
	for _, k := range []string{"throughput_rps", "cpu_ms_per_op", "daemon_rss_mb"} {
		fmt.Fprintf(b.out, "%-21s %.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(b.out, "%-21s %.6f   (%d of %d)\n", "failed_ratio", float64(t.Failed)/float64(t.Sent), t.Failed, t.Sent)
	if p.points > 0 {
		fmt.Fprintf(b.out, "%-21s %.4f 1/s\n", "campaign_points_per_s", float64(p.points)/p.campaign.Seconds())
		fmt.Fprintf(b.out, "%-21s %.4f 1/s\n", "peer_reads_per_s", float64(t.OK)/p.reading.Seconds())
	}
	return m, p, fails, nil
}

// latencies returns the phase's successful request latencies, sorted.
func (p *phase) latencies() []time.Duration {
	var out []time.Duration
	for _, r := range p.results {
		if r.why == "" {
			out = append(out, r.Latency)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printByRoute prints the median latency of each route and fault profile.
func printByRoute(w io.Writer, p *phase) {
	by := map[string][]time.Duration{}
	for i, r := range p.results {
		if r.why == "" {
			k := p.reqs[i].Route
			if p.reqs[i].Fault != "" {
				k += " (" + p.reqs[i].Fault + ")"
			}
			if p.reqs[i].NewGeometry {
				k += " (new geometry)"
			}
			by[k] = append(by[k], r.Latency)
		}
	}
	keys := make([]string, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		l := by[k]
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		fmt.Fprintf(w, "  %-34s p50 %9.4f ms  (%d samples)\n", k, ms(l[len(l)/2]), len(l))
	}
}
