package meter

import (
	"math"
	"reflect"
	"testing"
)

func uniformTrace(n int, watts float64) []Sample {
	log := make([]Sample, n)
	for i := range log {
		log[i] = Sample{T: float64(i), Watts: watts}
	}
	return log
}

func TestRepairDamage(t *testing.T) {
	log := uniformTrace(100, 200)
	log[10].Watts = math.NaN()                                        // dropped, then gap-filled
	log[20].Watts = 2000                                              // spike, clipped to median
	log = append(log[:50], append([]Sample{log[49]}, log[50:]...)...) // duplicate sample 49

	out, rep := Repair(log, RepairOpts{Start: 0, End: 99, IntervalSec: 1})
	if rep.Invalid != 1 {
		t.Errorf("Invalid = %d, want 1", rep.Invalid)
	}
	if rep.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", rep.Duplicates)
	}
	if rep.SpikesClipped != 1 {
		t.Errorf("SpikesClipped = %d, want 1", rep.SpikesClipped)
	}
	if rep.GapSamplesFilled != 1 {
		t.Errorf("GapSamplesFilled = %d, want 1 (the dropped NaN)", rep.GapSamplesFilled)
	}
	if len(out) != 100 {
		t.Errorf("repaired length %d, want the full 100-point grid", len(out))
	}
	for _, s := range out {
		if math.IsNaN(s.Watts) || s.Watts < 199 || s.Watts > 201 {
			t.Fatalf("repaired trace still contains bad reading %+v", s)
		}
	}
}

func TestRepairSpikeDoesNotClipLegitimateRange(t *testing.T) {
	// A trace stepping between two real power levels (idle/loaded) must not
	// have its levels clipped: MAD sees the bimodality as signal.
	log := make([]Sample, 200)
	for i := range log {
		w := 150.0
		if i >= 100 {
			w = 300.0
		}
		log[i] = Sample{T: float64(i), Watts: w}
	}
	_, rep := Repair(log, RepairOpts{Start: 0, End: 199, IntervalSec: 1})
	if rep.SpikesClipped != 0 {
		t.Errorf("clipped %d legitimate level-shift samples", rep.SpikesClipped)
	}
}

func TestRepairEmptyAndAllInvalid(t *testing.T) {
	if out, rep := Repair(nil, RepairOpts{}); out != nil || rep.Total() != 0 {
		t.Errorf("Repair(nil) = %v, %+v", out, rep)
	}
	bad := []Sample{{T: 0, Watts: math.NaN()}, {T: 1, Watts: math.Inf(1)}}
	out, rep := Repair(bad, RepairOpts{})
	if out != nil {
		t.Errorf("all-invalid trace repaired to %v, want nil", out)
	}
	if rep.Invalid != 2 {
		t.Errorf("Invalid = %d, want 2", rep.Invalid)
	}
}

func TestRepairTruncatedTailRebuilt(t *testing.T) {
	log := uniformTrace(100, 200)[:70] // tail lost
	out, rep := Repair(log, RepairOpts{Start: 0, End: 99, IntervalSec: 1})
	if len(out) != 100 {
		t.Fatalf("len = %d, want 100", len(out))
	}
	if rep.GapSamplesFilled != 30 {
		t.Errorf("GapSamplesFilled = %d, want 30", rep.GapSamplesFilled)
	}
	if last := out[len(out)-1]; last.Watts != 200 {
		t.Errorf("extended tail reads %v, want the nearest real level 200", last.Watts)
	}
}

// TestMeterCloneIndependence: exhausting a clone's RNG must not advance the
// parent's streams — the parent then behaves exactly like an untouched twin
// (the seeding half of the scheduler's determinism contract).
func TestMeterCloneIndependence(t *testing.T) {
	parent := New(7)
	twin := New(7)
	clone := parent.Clone(99)

	// Burn the clone hard.
	for i := 0; i < 20; i++ {
		clone.Record(0, 1000, func(float64) float64 { return 200 })
	}

	p := parent.Record(0, 500, func(tm float64) float64 { return 200 + tm })
	w := twin.Record(0, 500, func(tm float64) float64 { return 200 + tm })
	if !reflect.DeepEqual(p, w) {
		t.Fatal("burning a clone changed the parent meter's output")
	}

	// And two clones at the same seed are interchangeable.
	c1 := New(3).Clone(42).Record(0, 100, func(float64) float64 { return 150 })
	c2 := New(9).Clone(42).Record(0, 100, func(float64) float64 { return 150 })
	if !reflect.DeepEqual(c1, c2) {
		t.Fatal("clones with equal seeds produced different traces")
	}
}
