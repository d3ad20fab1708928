package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestResultsUpToDate regenerates every committed results/ artifact that
// figures writes — the per-artifact TSVs, figures.txt (the full stdout) and
// fig3_chart.txt (the Fig. 3 bar chart) — and compares the bytes, so a
// change that moves a published number cannot land without regenerating
// results/.
func TestResultsUpToDate(t *testing.T) {
	if raceEnabled {
		t.Skip("the full reproduction is too slow under the race detector")
	}
	want := filepath.Join("..", "..", "results")
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("figures -out: exit %d: %s", code, stderr.String())
	}
	compareFile(t, filepath.Join(want, "figures.txt"), stdout.Bytes())
	tsvs, err := filepath.Glob(filepath.Join(dir, "*.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	committed, err := filepath.Glob(filepath.Join(want, "*.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tsvs) != len(committed) {
		t.Errorf("figures wrote %d TSVs, results/ holds %d", len(tsvs), len(committed))
	}
	for _, path := range tsvs {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		compareFile(t, filepath.Join(want, filepath.Base(path)), got)
	}

	stdout.Reset()
	if code := run([]string{"-only", "fig3", "-chart"}, &stdout, &stderr); code != 0 {
		t.Fatalf("figures -only fig3 -chart: exit %d: %s", code, stderr.String())
	}
	compareFile(t, filepath.Join(want, "fig3_chart.txt"), stdout.Bytes())
}

func compareFile(t *testing.T, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is out of date: regenerate results/ (got %d bytes, committed %d)", path, len(got), len(want))
	}
}

func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code := run([]string{"-only", "nope"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown artifact: exit %d, want 1", code)
	}
}
