package workload

import (
	"math"
	"testing"
)

func TestAllCharacteristicsValid(t *testing.T) {
	chars := map[string]Characteristic{
		"HPL": CharHPL, "EP": CharEP, "BT": CharBT, "CG": CharCG,
		"FT": CharFT, "IS": CharIS, "LU": CharLU, "MG": CharMG,
		"SP": CharSP, "SSJ": CharSSJ, "DGEMM": CharDGEMM,
		"STREAM": CharSTREAM, "PTRANS": CharPTRANS,
		"RandomAccess": CharRandomAccess, "FFT": CharFFT, "bEff": CharBEff,
	}
	for name, c := range chars {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if c.Pattern.WorkingSetBytes == 0 {
			t.Errorf("%s: zero working set", name)
		}
	}
}

func TestCharacteristicOrderingAssumptions(t *testing.T) {
	// EP must demand the least bandwidth and communicate the least among
	// the NPB programs; SP must communicate the most (paper §VI-C); HPL has
	// the highest compute and vector-FP intensity.
	npb := map[string]Characteristic{
		"BT": CharBT, "CG": CharCG, "FT": CharFT, "IS": CharIS,
		"LU": CharLU, "MG": CharMG, "SP": CharSP,
	}
	for name, c := range npb {
		if c.BandwidthPerCore <= CharEP.BandwidthPerCore {
			t.Errorf("%s bandwidth %v should exceed EP's %v", name, c.BandwidthPerCore, CharEP.BandwidthPerCore)
		}
		if c.CommPerCore <= CharEP.CommPerCore {
			t.Errorf("%s comm %v should exceed EP's", name, c.CommPerCore)
		}
		if c.CommPerCore > CharSP.CommPerCore {
			t.Errorf("%s comm %v should not exceed SP's %v", name, c.CommPerCore, CharSP.CommPerCore)
		}
		if c.Compute > CharHPL.Compute || c.FPWidth >= CharHPL.FPWidth {
			t.Errorf("%s compute/FP should stay below HPL", name)
		}
	}
}

func TestCharacteristicValidateRejects(t *testing.T) {
	bad := []Characteristic{
		{Compute: -0.1},
		{Compute: 1.5},
		{Compute: 0.5, FPWidth: 2},
		{Compute: 0.5, BandwidthPerCore: -1},
		{Compute: 0.5, CommPerCore: 1.2},
		{Compute: 0.5, InstrPerFlop: -3},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestModelValidate(t *testing.T) {
	good := Model{Name: "ep.C.4", Processes: 4, DurationSec: 60, GFLOPS: 0.1, Char: CharEP, UtilizationScale: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	bad := []Model{
		{},
		{Name: "x", Processes: -1, Char: CharEP},
		{Name: "x", DurationSec: -1, Char: CharEP},
		{Name: "x", GFLOPS: -1, Char: CharEP},
		{Name: "x", UtilizationScale: 2, Char: CharEP},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}
}

func TestIdleModel(t *testing.T) {
	m := Idle(300)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Processes != 0 || m.DurationSec != 300 || m.GFLOPS != 0 {
		t.Errorf("idle model = %+v", m)
	}
}

func TestUtilizationDefault(t *testing.T) {
	m := Model{Name: "x", Char: CharEP}
	if m.Utilization() != 1 {
		t.Errorf("zero UtilizationScale should default to 1, got %v", m.Utilization())
	}
	m.UtilizationScale = 0.4
	if m.Utilization() != 0.4 {
		t.Errorf("Utilization = %v", m.Utilization())
	}
}

func TestEnergyKJ(t *testing.T) {
	// Paper Eq. 2: 150 W for 240 s = 36 KJ (the EP.C.1 point of Fig. 11).
	if got := EnergyKJ(150, 240); math.Abs(got-36) > 1e-12 {
		t.Errorf("EnergyKJ = %v, want 36", got)
	}
}

func TestPPW(t *testing.T) {
	if got := PPW(37.2, 235.3179); math.Abs(got-0.158) > 0.001 {
		t.Errorf("PPW = %v, want ≈0.158 (paper Table IV HPL P4 Mf)", got)
	}
	if PPW(10, 0) != 0 {
		t.Error("PPW with zero power should be 0")
	}
}
