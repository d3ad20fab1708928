package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// CLI bundles the observability command-line surface shared by the
// repository's binaries: the -metrics-out exporter path and the -v / -q
// verbosity pair. Register it on a FlagSet, build the run's Obs with NewObs
// once flags are parsed, and Flush the snapshot file when the run completes.
type CLI struct {
	MetricsOut string
	Verbosity  int
	Quiet      bool
}

// Register installs the telemetry flags on fs.
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.MetricsOut, "metrics-out", "", "write a JSON metrics snapshot to this file")
	fs.BoolVar(&c.Quiet, "q", false, "suppress normal report output")
	fs.BoolFunc("v", "increase diagnostic verbosity (repeat for debug detail)", func(string) error {
		c.Verbosity++
		return nil
	})
}

// NewObs builds the run's telemetry from the parsed flags. Report output
// goes to stdout exactly as fmt.Print would (unless -q); Infof/Debugf
// diagnostics go to stderr under -v/-vv.
func (c *CLI) NewObs(stdout, stderr io.Writer) *Obs {
	log := NewLogger(stdout, stderr, c.Verbosity)
	log.SetQuiet(c.Quiet)
	reg := NewRegistry()
	PublishBuildInfo(reg)
	return &Obs{Metrics: reg, Log: log}
}

// Flush writes the -metrics-out snapshot, reporting failures to stderr. It
// returns a process exit code: 0 on success (or with no file requested), 1
// if the write failed.
func (c *CLI) Flush(o *Obs, stderr io.Writer) int {
	if c.MetricsOut == "" {
		return 0
	}
	f, err := os.Create(c.MetricsOut)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	werr := WriteJSON(f, o)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(stderr, "%s: %v\n", c.MetricsOut, werr)
		return 1
	}
	return 0
}
