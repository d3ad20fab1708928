package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/flight"
	"powerbench/internal/report"
	"powerbench/internal/sched"
	"powerbench/internal/server"
	"powerbench/internal/tracectx"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/pipeline.golden")

const pipelineGolden = "testdata/pipeline.golden"

// TestPipelineGolden pins the pipeline's observable bytes across releases,
// not only across worker counts within one process: for evaluate and
// Green500 on Xeon-E5462 and the three-server comparison, under fault
// profiles {none, light} at -jobs {1, 8}, it records the tracectx export's
// tree hash, the SHA-256 of the flight JSONL and the SHA-256 of the rendered
// table TSV. A renamed span, a lost or stray attr, an extra "attempt N"
// span, or a float that moves by one ulp changes a line. Regenerate with
// `go test ./internal/core -run PipelineGolden -update` only for a change
// that means to alter the pipeline's output.
func TestPipelineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every operation under both fault profiles at two worker counts")
	}
	var lines []string
	for _, op := range []string{"evaluate", "green500", "compare"} {
		for _, prof := range []*fault.Profile{nil, fault.Light()} {
			for _, jobs := range []int{1, 8} {
				lines = append(lines, pipelineLine(t, op, prof, jobs))
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(pipelineGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(pipelineGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(pipelineGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("pipeline output drifted from %s:\n got:\n%s\nwant:\n%s", pipelineGolden, got, want)
	}
}

// pipelineLine runs one operation traced and flight-recorded and renders
// its golden line: "<op> faults=<p> jobs=<n> tree=<hash> flight=<sha> table=<sha>".
func pipelineLine(t *testing.T, op string, prof *fault.Profile, jobs int) string {
	t.Helper()
	faults := "none"
	if prof != nil {
		faults = prof.Name
	}
	tr := tracectx.New(tracectx.DeriveID("pipeline-golden|"+op+"|"+faults), "golden", "test")
	ctx := tracectx.ContextWith(context.Background(), tr.Root())
	rec := flight.NewRecorder(0)
	opts := EvalOptions{Pool: sched.New(jobs, nil), Fault: prof, Flight: rec}
	spec := server.XeonE5462()
	var table *report.Table
	switch op {
	case "evaluate":
		ev, err := EvaluateCtx(ctx, spec, 7, opts)
		if err != nil {
			t.Fatalf("%s/%s/jobs=%d: %v", op, faults, jobs, err)
		}
		table = EvaluationTable(ev, "golden")
	case "green500":
		g, err := Green500Ctx(ctx, spec, 7, opts)
		if err != nil {
			t.Fatalf("%s/%s/jobs=%d: %v", op, faults, jobs, err)
		}
		table = &report.Table{Columns: []string{"Server", "Rmax", "AvgWatts", "PPW", "Quality"}}
		table.AddRow(g.Server, exact(g.Rmax), exact(g.AvgWatts), exact(g.PPW), g.Quality.Summary())
	case "compare":
		c, err := CompareCtx(ctx, server.All(), 42, opts)
		if err != nil {
			t.Fatalf("%s/%s/jobs=%d: %v", op, faults, jobs, err)
		}
		table = &report.Table{Columns: []string{"Server", "Ours", "Green500", "SPECpower", "Quality"}}
		for i, name := range c.Servers {
			q := "nil"
			if c.Quality != nil {
				q = c.Quality[i].Summary()
			}
			table.AddRow(name, exact(c.Ours[i]), exact(c.Green500[i]), exact(c.SPECpower[i]), q)
		}
	}
	tr.Root().End()
	return fmt.Sprintf("%s faults=%s jobs=%d tree=%s flight=%s table=%s",
		op, faults, jobs, tr.Export().TreeHash, sha(rec.Bytes()), sha([]byte(table.TSV())))
}

// exact renders a float with every bit significant.
func exact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
