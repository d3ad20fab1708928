package meter_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"powerbench/internal/fault"
	"powerbench/internal/meter"
)

// lightWindow is a 30k-sample program window recorded at 1 Hz and damaged
// by the light fault profile, the shape Repair sees on a faulted request.
func lightWindow() ([]meter.Sample, meter.RepairOpts) {
	const n = 30000
	log := meter.New(11).Record(0, n-1, func(t float64) float64 {
		if int(t)/3000%2 == 1 {
			return 310
		}
		return 180
	})
	bad := fault.New(fault.Light(), 5, fault.NewLedger()).CorruptTrace(log)
	return bad, meter.RepairOpts{Start: 0, End: n - 1, IntervalSec: 1}
}

// TestRepairAllocs pins Repair's allocations on a light-faulted window: the
// survivor log, one scratch buffer for both medians, and the output grid.
func TestRepairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	log, opts := lightWindow()
	if _, rep := meter.Repair(log, opts); rep.Total() == 0 {
		t.Fatal("the light-faulted window needed no repair; the test exercises nothing")
	}
	// Collection is off while counting: a GC cycle started by the window's
	// 1 MB of garbage allocates on its own account, inside the count.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(10, func() { meter.Repair(log, opts) })
	if allocs > 3 {
		t.Errorf("Repair made %.0f allocations on a 30k-sample window, want ≤ 3", allocs)
	}
}

// BenchmarkRepair times Repair against the sort-based reference on the same
// light-faulted window; CI gates the ratio of the two.
func BenchmarkRepair(b *testing.B) {
	log, opts := lightWindow()
	for _, c := range []struct {
		name   string
		repair func([]meter.Sample, meter.RepairOpts) ([]meter.Sample, meter.RepairReport)
	}{{"fast", meter.Repair}, {"reference", meter.ReferenceRepair}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.repair(log, opts)
			}
		})
	}
}
