package hpcc

import (
	"strings"
	"testing"

	"powerbench/internal/server"
)

func TestCharOfAllComponents(t *testing.T) {
	for _, c := range Components {
		char, err := CharOf(c)
		if err != nil {
			t.Errorf("%s: %v", c, err)
		}
		if err := char.Validate(); err != nil {
			t.Errorf("%s characteristic invalid: %v", c, err)
		}
	}
	if _, err := CharOf(Component("nope")); err == nil {
		t.Error("unknown component should error")
	}
}

func TestComponentDiversity(t *testing.T) {
	// The suite exists to span the load space (§VI-A2): it must contain a
	// compute-dominant member, a bandwidth-dominant member and a
	// communication-dominant member.
	dgemm, _ := CharOf(DGEMM)
	stream, _ := CharOf(STREAM)
	beff, _ := CharOf(BEff)
	if dgemm.Compute <= stream.Compute || dgemm.FPWidth <= stream.FPWidth {
		t.Error("DGEMM should dominate STREAM on compute axes")
	}
	if stream.BandwidthPerCore <= dgemm.BandwidthPerCore {
		t.Error("STREAM should dominate DGEMM on bandwidth")
	}
	if beff.CommPerCore <= stream.CommPerCore || beff.CommPerCore <= dgemm.CommPerCore {
		t.Error("b_eff should dominate on communication")
	}
}

func TestNewModel(t *testing.T) {
	s := server.Xeon4870()
	m, err := NewModel(s, STREAM, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "stream.8" || m.Processes != 8 {
		t.Errorf("model = %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("invalid model: %v", err)
	}
	if m.DurationSec != trainingDurationSec {
		t.Errorf("duration = %v", m.DurationSec)
	}
	if _, err := NewModel(s, STREAM, 0); err == nil {
		t.Error("zero procs should error")
	}
	if _, err := NewModel(s, STREAM, 41); err == nil {
		t.Error("too many procs should error")
	}
}

func TestHPLModelUsesAnchors(t *testing.T) {
	s := server.Xeon4870()
	m, err := NewModel(s, HPL, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Training sweep runs HPL at half memory: Table VI's Mh anchor at 40
	// procs is 339 GFLOPS.
	if m.GFLOPS < 330 || m.GFLOPS > 350 {
		t.Errorf("HPL.40 model GFLOPS = %v, want ≈339", m.GFLOPS)
	}
}

func TestTrainingModels(t *testing.T) {
	s := server.Xeon4870()
	models, err := TrainingModels(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 7*40 {
		t.Fatalf("training models = %d, want 280", len(models))
	}
	// Script order: core count outer, component inner.
	if models[0].Name != "hpl.1" || !strings.HasSuffix(models[len(models)-1].Name, ".40") {
		t.Errorf("ordering: first %s, last %s", models[0].Name, models[len(models)-1].Name)
	}
	// Sample count across the sweep should land near the paper's 6,056
	// observations at 10 s windows.
	windows := 0
	for _, m := range models {
		windows += int(m.DurationSec / 10)
	}
	if windows < 5500 || windows > 6800 {
		t.Errorf("total PMU windows = %d, want ≈6,056", windows)
	}
}
