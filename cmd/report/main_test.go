package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestReportUpToDate regenerates results/report.md and compares the bytes,
// so a change that moves a reported number cannot land without
// regenerating it.
func TestReportUpToDate(t *testing.T) {
	if raceEnabled {
		t.Skip("the full reproduction is too slow under the race detector")
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("report: exit %d: %s", code, stderr.String())
	}
	path := filepath.Join("..", "..", "results", "report.md")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("%s is out of date: regenerate results/ (got %d bytes, committed %d)", path, stdout.Len(), len(want))
	}
}

func TestRunBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
