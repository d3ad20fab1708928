package pmu

import (
	"testing"

	"powerbench/internal/server"
	"powerbench/internal/workload"
)

func model(name string, procs int, char workload.Characteristic, memBytes uint64) workload.Model {
	return workload.Model{
		Name: name, Processes: procs, DurationSec: 100,
		MemoryBytes: memBytes, Char: char, UtilizationScale: 1,
	}
}

func TestIdleRatesZero(t *testing.T) {
	s := server.XeonE5462()
	f, err := Rates(s, workload.Idle(60))
	if err != nil {
		t.Fatal(err)
	}
	if f != (Features{}) {
		t.Errorf("idle rates = %+v, want zero", f)
	}
}

func TestInstructionRateScalesWithCores(t *testing.T) {
	s := server.Xeon4870()
	f1, err := Rates(s, model("ep", 1, workload.CharEP, 30<<20))
	if err != nil {
		t.Fatal(err)
	}
	f4, err := Rates(s, model("ep", 4, workload.CharEP, 30<<20))
	if err != nil {
		t.Fatal(err)
	}
	if f4.Instructions < 3.5*f1.Instructions || f4.Instructions > 4.5*f1.Instructions {
		t.Errorf("instructions should scale ~4x: %v vs %v", f1.Instructions, f4.Instructions)
	}
	if f4.WorkingCores != 4 {
		t.Errorf("working cores = %v", f4.WorkingCores)
	}
}

func TestComputeBoundVsMemoryBound(t *testing.T) {
	s := server.Xeon4870()
	hpl, err := Rates(s, model("hpl", 8, workload.CharHPL, 8<<30))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := Rates(s, model("gups", 8, workload.CharRandomAccess, 8<<30))
	if err != nil {
		t.Fatal(err)
	}
	// HPL retires more instructions; RandomAccess hits DRAM more per
	// instruction.
	if hpl.Instructions <= ra.Instructions {
		t.Errorf("HPL instr %v should exceed RandomAccess %v", hpl.Instructions, ra.Instructions)
	}
	hplMemPerInstr := (hpl.MemReads + hpl.MemWrites) / hpl.Instructions
	raMemPerInstr := (ra.MemReads + ra.MemWrites) / ra.Instructions
	if raMemPerInstr <= hplMemPerInstr {
		t.Errorf("RandomAccess DRAM/instr %v should exceed HPL %v", raMemPerInstr, hplMemPerInstr)
	}
}

func TestEPBarelyTouchesDRAM(t *testing.T) {
	s := server.XeonE5462()
	ep, err := Rates(s, model("ep", 4, workload.CharEP, 30<<20))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Rates(s, model("stream", 4, workload.CharSTREAM, 2<<30))
	if err != nil {
		t.Fatal(err)
	}
	if ep.MemReads+ep.MemWrites >= (stream.MemReads+stream.MemWrites)/10 {
		t.Errorf("EP DRAM traffic %v should be far below STREAM %v",
			ep.MemReads+ep.MemWrites, stream.MemReads+stream.MemWrites)
	}
}

func TestL3OnlyWhenPresent(t *testing.T) {
	e5462 := server.XeonE5462() // no L3
	f, err := Rates(e5462, model("cg", 2, workload.CharCG, 2<<30))
	if err != nil {
		t.Fatal(err)
	}
	if f.L3Hits != 0 {
		t.Errorf("L3 hits on L3-less server = %v", f.L3Hits)
	}
	opteron := server.Opteron8347()
	f, err = Rates(opteron, model("cg", 2, workload.CharCG, 2<<30))
	if err != nil {
		t.Fatal(err)
	}
	if f.L3Hits <= 0 {
		t.Errorf("CG on Opteron should have L3 hits, got %v", f.L3Hits)
	}
}

func TestDRAMBandwidthCap(t *testing.T) {
	s := server.XeonE5462()
	f, err := Rates(s, model("stream", 4, workload.CharSTREAM, 4<<30))
	if err != nil {
		t.Fatal(err)
	}
	maxLines := s.MemBWBytesPerSec / 64
	if f.MemReads+f.MemWrites > maxLines*1.0001 {
		t.Errorf("DRAM rate %v exceeds bandwidth cap %v", f.MemReads+f.MemWrites, maxLines)
	}
}

func TestVectorAndNames(t *testing.T) {
	f := Features{WorkingCores: 1, Instructions: 2, L2Hits: 3, L3Hits: 4, MemReads: 5, MemWrites: 6}
	v := f.Vector()
	for i, want := range []float64{1, 2, 3, 4, 5, 6} {
		if v[i] != want {
			t.Errorf("Vector[%d] = %v", i, v[i])
		}
	}
	if len(FeatureNames) != 6 {
		t.Errorf("FeatureNames = %v", FeatureNames)
	}
}

func TestCollectWindowCount(t *testing.T) {
	s := server.XeonE5462()
	m := model("ep", 2, workload.CharEP, 30<<20)
	m.DurationSec = 95
	samples, err := NewSampler(1).Collect(s, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 9 {
		t.Errorf("95 s at 10 s interval should give 9 complete windows, got %d", len(samples))
	}
	for i, smp := range samples {
		if smp.T != float64(i)*10 || smp.Interval != 10 {
			t.Errorf("sample %d timing: %+v", i, smp)
		}
		if smp.Counts.Instructions <= 0 {
			t.Errorf("sample %d has no instructions", i)
		}
	}
}

func TestCollectJitterVariesButBounded(t *testing.T) {
	s := server.XeonE5462()
	m := model("hpl", 4, workload.CharHPL, 4<<30)
	m.DurationSec = 500
	samples, err := NewSampler(7).Collect(s, m)
	if err != nil {
		t.Fatal(err)
	}
	rates, err := Rates(s, m)
	if err != nil {
		t.Fatal(err)
	}
	want := rates.Instructions * 10
	distinct := false
	for i, smp := range samples {
		got := smp.Counts.Instructions
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("sample %d instructions %v outside ±15%% of %v", i, got, want)
		}
		if i > 0 && got != samples[0].Counts.Instructions {
			distinct = true
		}
	}
	if !distinct {
		t.Error("jitter should make windows differ")
	}
}

func TestCollectReproducible(t *testing.T) {
	s := server.XeonE5462()
	m := model("ep", 1, workload.CharEP, 30<<20)
	a, err := NewSampler(3).Collect(s, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSampler(3).Collect(s, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should reproduce samples")
		}
	}
}

func BenchmarkRates(b *testing.B) {
	s := server.Xeon4870()
	m := model("cg", 16, workload.CharCG, 8<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Rates(s, m); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuantizePow2(t *testing.T) {
	cases := map[uint64]uint64{
		1: 1, 2: 2, 3: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048,
	}
	for in, want := range cases {
		if got := quantizePow2(in); got != want {
			t.Errorf("quantizePow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestIPCDerating(t *testing.T) {
	if ipcOf(1) != ipcFull {
		t.Errorf("ipf=1 should give full IPC, got %v", ipcOf(1))
	}
	if ipcOf(0.5) != ipcFull {
		t.Errorf("ipf<1 should clamp, got %v", ipcOf(0.5))
	}
	if ipcOf(4) >= ipcOf(2) {
		t.Error("higher instr/flop should derate IPC")
	}
}

func TestWorkingSetScalesWithClassFootprint(t *testing.T) {
	// Sweeping codes (characteristic hot set ≥ 8 MiB) must show heavier
	// DRAM traffic per instruction when the per-process slice grows.
	s := server.Xeon4870()
	small := model("cg-small", 8, workload.CharCG, 512<<20)
	big := model("cg-big", 8, workload.CharCG, 8<<30)
	fs, err := Rates(s, small)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := Rates(s, big)
	if err != nil {
		t.Fatal(err)
	}
	smallPerInstr := (fs.MemReads + fs.MemWrites) / fs.Instructions
	bigPerInstr := (fb.MemReads + fb.MemWrites) / fb.Instructions
	if bigPerInstr < smallPerInstr {
		t.Errorf("bigger slice should not reduce DRAM/instr: %v vs %v", bigPerInstr, smallPerInstr)
	}
	// Blocked codes (EP) must be insensitive to footprint.
	es, err := Rates(s, model("ep-s", 8, workload.CharEP, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	eb, err := Rates(s, model("ep-b", 8, workload.CharEP, 8<<30))
	if err != nil {
		t.Fatal(err)
	}
	if es.L2Hits != eb.L2Hits {
		t.Errorf("EP cache behaviour should not depend on footprint: %v vs %v", es.L2Hits, eb.L2Hits)
	}
}

// TestRatesKeyOnGeometry checks that a spec borrowing a built-in's name but
// not its cache geometry gets its own counters: equal to its renamed twin's
// and unequal to the built-in's, however the calls are ordered.
func TestRatesKeyOnGeometry(t *testing.T) {
	cases := []struct {
		name  string
		base  func() *server.Spec
		alter func(*server.Spec)
	}{
		{"Xeon-E5462 L2", server.XeonE5462, func(s *server.Spec) { s.L2.SizeBytes, s.L2.Ways = 256<<10, 8 }},
		{"Opteron-8347 L3", server.Opteron8347, func(s *server.Spec) { s.L3.SizeBytes = 4 << 20 }},
		{"Xeon-4870 L1D", server.Xeon4870, func(s *server.Spec) { s.L1D.Ways = 2 }},
	}
	models := []workload.Model{
		model("hpl", 4, workload.CharHPL, 4<<30),
		model("gups", 4, workload.CharRandomAccess, 1<<30),
	}
	rates := func(s *server.Spec, m workload.Model) Features {
		t.Helper()
		f, err := Rates(s, m)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, c := range cases {
		for _, m := range models {
			builtin := c.base()
			lookalike := c.base()
			c.alter(lookalike)
			twin := c.base()
			c.alter(twin)
			twin.Name = "renamed"
			b := rates(builtin, m)
			l := rates(lookalike, m)
			if tw := rates(twin, m); l != tw {
				t.Errorf("%s, %s: look-alike %+v, renamed twin %+v", c.name, m.Name, l, tw)
			}
			if l == b {
				t.Errorf("%s, %s: look-alike got the built-in's counters %+v", c.name, m.Name, b)
			}
		}
	}
}
