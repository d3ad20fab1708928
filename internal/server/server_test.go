package server

import (
	"fmt"
	"math"
	"testing"

	"powerbench/internal/workload"
)

func TestAllServersValidate(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"Xeon-E5462", "Opteron-8347", "Xeon-4870"} {
		s, err := ByName(name)
		if err != nil || s.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := ByName("PDP-11"); err == nil {
		t.Error("unknown server should error")
	}
}

func TestPeakGFLOPS(t *testing.T) {
	cases := map[string]float64{
		"Xeon-E5462":   44.8,
		"Opteron-8347": 121.6,
		"Xeon-4870":    384,
	}
	for _, s := range All() {
		if got := s.PeakGFLOPS(); math.Abs(got-cases[s.Name]) > 1e-9 {
			t.Errorf("%s peak = %v, want %v (paper §II)", s.Name, got, cases[s.Name])
		}
	}
}

func TestIdlePower(t *testing.T) {
	for _, s := range All() {
		if got := s.Power(Load{}); got != s.IdleWatts {
			t.Errorf("%s inactive power = %v, want idle %v", s.Name, got, s.IdleWatts)
		}
		if got := s.PowerOf(workload.Idle(60)); got != s.IdleWatts {
			t.Errorf("%s idle model power = %v", s.Name, got)
		}
	}
}

// TestCalibrationReproducesReferencePoints is the central fidelity check of
// the hardware substitution: the calibrated model must reproduce every
// wattage the paper reports in Tables IV-VI to within a few percent.
func TestCalibrationReproducesReferencePoints(t *testing.T) {
	for _, s := range All() {
		refs := ReferencePoints(s.Name)
		if len(refs) != 9 {
			t.Fatalf("%s: %d reference points", s.Name, len(refs))
		}
		rms := CalibrationError(s, refs)
		if rms > 0.035*s.IdleWatts {
			t.Errorf("%s: calibration RMS error %.2f W too large (idle %.0f W)", s.Name, rms, s.IdleWatts)
		}
		for _, p := range refs {
			got := s.Power(referenceLoad(s, p))
			relErr := math.Abs(got-p.Watts) / p.Watts
			if relErr > 0.05 {
				t.Errorf("%s %s n=%d: model %.1f W vs paper %.1f W (%.1f%%)",
					s.Name, p.Program, p.N, got, p.Watts, 100*relErr)
			}
		}
	}
}

func TestCoefficientsNonNegative(t *testing.T) {
	for _, s := range All() {
		c := s.Coef
		for name, v := range map[string]float64{
			"Active": c.Active, "PerCore": c.PerCore, "Compute": c.Compute,
			"FPCompute": c.FPCompute, "UncoreBW": c.UncoreBW, "MemFoot": c.MemFoot,
		} {
			if v < 0 {
				t.Errorf("%s: coefficient %s = %v < 0", s.Name, name, v)
			}
		}
	}
}

// TestEPLowestHPLHighest encodes the paper's finding (4): with the same
// process count, every program's power lies between EP's and HPL's.
func TestEPLowestHPLHighest(t *testing.T) {
	chars := map[string]workload.Characteristic{
		"bt": workload.CharBT, "cg": workload.CharCG, "ft": workload.CharFT,
		"is": workload.CharIS, "lu": workload.CharLU, "mg": workload.CharMG,
		"sp": workload.CharSP,
	}
	for _, s := range All() {
		for _, n := range []int{2, s.HalfCores(), s.Cores} {
			if n < 2 {
				continue
			}
			mk := func(c workload.Characteristic, foot float64) float64 {
				return s.Power(Load{
					Active: true, Cores: float64(n),
					Compute: c.Compute, FPWidth: c.FPWidth,
					BandwidthPerCore: c.BandwidthPerCore, Comm: c.CommPerCore,
					FootprintFrac: foot,
				})
			}
			ep := mk(workload.CharEP, 0.01)
			hpl := mk(workload.CharHPL, 0.6)
			if ep >= hpl {
				t.Errorf("%s n=%d: EP %.1f W >= HPL %.1f W", s.Name, n, ep, hpl)
			}
			for name, c := range chars {
				p := mk(c, 0.3)
				if p <= ep || p >= hpl {
					t.Errorf("%s n=%d: %s power %.1f W outside (EP %.1f, HPL %.1f)",
						s.Name, n, name, p, ep, hpl)
				}
			}
		}
	}
}

// TestPowerMonotoneInCores encodes finding (1)/(2): power grows with the
// process count for both HPL and EP, and HPL grows faster.
func TestPowerMonotoneInCores(t *testing.T) {
	for _, s := range All() {
		var prevEP, prevHPL float64
		for n := 0; n <= s.Cores; n++ {
			lEP := Load{Active: n > 0, Cores: float64(n),
				Compute: workload.CharEP.Compute, FPWidth: workload.CharEP.FPWidth,
				BandwidthPerCore: workload.CharEP.BandwidthPerCore, FootprintFrac: 0.01}
			lHPL := Load{Active: n > 0, Cores: float64(n),
				Compute: workload.CharHPL.Compute, FPWidth: workload.CharHPL.FPWidth,
				BandwidthPerCore: workload.CharHPL.BandwidthPerCore, FootprintFrac: 0.6}
			ep, hpl := s.Power(lEP), s.Power(lHPL)
			if n > 0 && (ep < prevEP-1e-9 || hpl < prevHPL-1e-9) {
				t.Errorf("%s: power not monotone at n=%d (EP %.1f→%.1f, HPL %.1f→%.1f)",
					s.Name, n, prevEP, ep, prevHPL, hpl)
			}
			prevEP, prevHPL = ep, hpl
		}
		// Growth from 1 process to all cores.
		growth := func(char workload.Characteristic, foot float64) float64 {
			one := s.Power(Load{Active: true, Cores: 1, Compute: char.Compute,
				FPWidth: char.FPWidth, BandwidthPerCore: char.BandwidthPerCore, FootprintFrac: foot})
			all := s.Power(Load{Active: true, Cores: float64(s.Cores), Compute: char.Compute,
				FPWidth: char.FPWidth, BandwidthPerCore: char.BandwidthPerCore, FootprintFrac: foot})
			return all - one
		}
		if growth(workload.CharHPL, 0.6) <= growth(workload.CharEP, 0.01) {
			t.Errorf("%s: HPL power growth should exceed EP growth", s.Name)
		}
	}
}

func TestMemoryFootprintSecondOrder(t *testing.T) {
	// §V-A1: memory utilization has limited impact on power; the full-vs-
	// half footprint difference must stay well below the per-core effects.
	for _, s := range All() {
		base := Load{Active: true, Cores: float64(s.Cores),
			Compute: workload.CharHPL.Compute, FPWidth: workload.CharHPL.FPWidth,
			BandwidthPerCore: workload.CharHPL.BandwidthPerCore}
		half, full := base, base
		half.FootprintFrac = 0.5
		full.FootprintFrac = 1.0
		diff := s.Power(full) - s.Power(half)
		coreSpan := s.Power(base) - s.IdleWatts
		if diff < 0 {
			t.Errorf("%s: more memory should not reduce power (%.2f W)", s.Name, diff)
		}
		if diff > 0.15*coreSpan {
			t.Errorf("%s: footprint effect %.1f W too large vs core span %.1f W", s.Name, diff, coreSpan)
		}
	}
}

func TestLoadOfClampsFootprint(t *testing.T) {
	s := XeonE5462()
	m := workload.Model{Name: "huge", Processes: 1, MemoryBytes: 1 << 40, Char: workload.CharCG}
	if l := s.LoadOf(m); l.FootprintFrac != 1 {
		t.Errorf("footprint = %v, want clamped to 1", l.FootprintFrac)
	}
}

func TestUtilizationScalesLoad(t *testing.T) {
	s := XeonE5462()
	full := workload.Model{Name: "ssj@1.0", Processes: 4, Char: workload.CharSSJ, UtilizationScale: 1.0}
	low := workload.Model{Name: "ssj@0.1", Processes: 4, Char: workload.CharSSJ, UtilizationScale: 0.1}
	pFull, pLow := s.PowerOf(full), s.PowerOf(low)
	if pLow >= pFull {
		t.Errorf("10%% load power %.1f should be below 100%% load %.1f", pLow, pFull)
	}
	if pLow <= s.IdleWatts {
		t.Errorf("active low load should exceed idle (%v vs %v)", pLow, s.IdleWatts)
	}
}

func TestAnchorCurveInterp(t *testing.T) {
	c := AnchorCurve{{1, 10}, {4, 40}}
	if got := c.Interp(2); math.Abs(got-20) > 1e-9 {
		t.Errorf("Interp(2) = %v, want 20 (linear scaling)", got)
	}
	if got := c.Interp(4); math.Abs(got-40) > 1e-9 {
		t.Errorf("Interp(4) = %v", got)
	}
	// Extrapolation continues the last log-log slope (here: linear).
	if got := c.Interp(8); math.Abs(got-80) > 1e-9 {
		t.Errorf("Interp(8) = %v, want 80", got)
	}
	if got := c.Interp(0.5); math.Abs(got-10) > 1e-9 {
		t.Errorf("Interp(<1) = %v, want clamped to n=1 value", got)
	}
	single := AnchorCurve{{2, 10}}
	if got := single.Interp(4); math.Abs(got-20) > 1e-9 {
		t.Errorf("single-anchor Interp = %v", got)
	}
	var empty AnchorCurve
	if got := empty.Interp(3); got != 0 {
		t.Errorf("empty curve = %v", got)
	}
}

func TestHPLAnchorsMatchPaper(t *testing.T) {
	s := Xeon4870()
	if got := s.HPLFull.Interp(40); math.Abs(got-344) > 1e-6 {
		t.Errorf("HPL Mf at 40 = %v, want 344 (paper Rmax)", got)
	}
	if got := s.EP.Interp(1); math.Abs(got-0.0187) > 1e-9 {
		t.Errorf("EP at 1 = %v", got)
	}
}

func TestUncalibratedDefaultCoeffs(t *testing.T) {
	s := &Spec{Name: "custom", Cores: 8, Chips: 1, FreqMHz: 2000,
		GFLOPSPerCore: 8, MemoryBytes: 16 << 30, MemBWBytesPerSec: 10e9,
		IdleWatts: 100}
	c := s.Coefficients()
	if c.PerCore <= 0 || c.Compute <= 0 || c.FPCompute <= 0 {
		t.Errorf("default coefficients should be positive: %+v", c)
	}
	p := s.Power(Load{Active: true, Cores: 8, Compute: 1, FPWidth: 1, BandwidthPerCore: 0.2, FootprintFrac: 0.5})
	if p <= s.IdleWatts || p > 3*s.IdleWatts {
		t.Errorf("default full-load power %v implausible", p)
	}
}

func TestCalibrateErrors(t *testing.T) {
	s := XeonE5462()
	if err := Calibrate(s, nil); err == nil {
		t.Error("empty reference set should error")
	}
}

func TestReferencePointsCopies(t *testing.T) {
	a := ReferencePoints("Xeon-E5462")
	a[0].Watts = 0
	b := ReferencePoints("Xeon-E5462")
	if b[0].Watts == 0 {
		t.Error("ReferencePoints should return a copy")
	}
	if ReferencePoints("nope") != nil {
		t.Error("unknown name should return nil")
	}
}

func TestStarvation(t *testing.T) {
	s := XeonE5462()
	l := Load{Active: true, Cores: 4, Compute: 1, FPWidth: 1,
		BandwidthPerCore: workload.CharHPL.BandwidthPerCore}
	if st := s.Starvation(l); st >= 1 {
		t.Errorf("4-core HPL on the FSB-limited E5462 should starve, got %v", st)
	}
	l.Cores = 1
	if st := s.Starvation(l); st != 1 {
		t.Errorf("1-core HPL should not starve, got %v", st)
	}
}

// TestBuiltinsFresh checks the memoized built-ins: every constructor hands
// out a copy that callers may mutate freely (curves and coefficients
// included), and the memoized calibration equals a fresh one bit for bit.
func TestBuiltinsFresh(t *testing.T) {
	fresh := map[string]*Spec{
		"Xeon-E5462":   newXeonE5462(),
		"Opteron-8347": newOpteron8347(),
		"Xeon-4870":    newXeon4870(),
	}
	// %#v prints every float in its shortest exact form, so equal renderings
	// mean equal bits.
	render := func(s *Spec) string { return fmt.Sprintf("%#v", *s) }
	for name, want := range fresh {
		got, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if render(got) != render(want) {
			t.Errorf("%s: memoized spec differs from a fresh calibration:\n got %#v\nwant %#v", name, *got, *want)
		}
		got.HPLFull[0].Value = -1
		got.HPLHalf = append(got.HPLHalf[:1], AnchorPoint{N: 99, Value: 99})
		got.EP[len(got.EP)-1].N = 1e9
		got.Coef.Active, got.Coef.UncoreBW = 1e6, -1
		got.IdleWatts = 0
		for _, again := range []*Spec{mustByName(t, name), findByName(All(), name)} {
			if render(again) != render(want) {
				t.Errorf("%s: a caller's mutation leaked into a later construction:\n got %#v", name, *again)
			}
		}
	}
}

func mustByName(t *testing.T, name string) *Spec {
	t.Helper()
	s, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func findByName(specs []*Spec, name string) *Spec {
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	return nil
}
