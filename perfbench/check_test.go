package main

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"powerbench/internal/sched"
)

func TestVerdictCatchesCorruptionAndWrongHeader(t *testing.T) {
	r := missAt(1, 3)
	ref, err := reference(context.Background(), sched.New(1, nil), r)
	if err != nil {
		t.Fatal(err)
	}
	good := Result{Status: 200, Cache: "miss", Body: append([]byte(nil), ref...)}
	if why := verdict(&good, "miss", ref); why != "" {
		t.Fatalf("a correct answer failed verification: %s", why)
	}
	corrupt := good
	corrupt.Body = append([]byte(nil), ref...)
	corrupt.Body[len(corrupt.Body)/2] ^= 1
	if why := verdict(&corrupt, "miss", ref); !strings.Contains(why, "body differs") {
		t.Errorf("corrupted body: verdict %q", why)
	}
	wrongHeader := good
	wrongHeader.Cache = "hit"
	if why := verdict(&wrongHeader, "miss", ref); !strings.Contains(why, "cache header") {
		t.Errorf("wrong cache header: verdict %q", why)
	}
	for _, bad := range []Result{
		{Status: 429, Cache: "miss", Body: ref},
		{Err: errors.New("connection reset")},
		{Status: 200, Cache: "hit", Body: ref, Mismatch: true},
	} {
		want := "miss"
		if bad.Mismatch {
			want = "hit"
		}
		if why := verdict(&bad, want, nil); why == "" {
			t.Errorf("%+v passed verification", bad)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	if v, ok := percentile(lat, 0.5); v != 50*time.Millisecond || !ok {
		t.Errorf("p50 = %v, %v", v, ok)
	}
	if v, ok := percentile(lat, 0.9); v != 90*time.Millisecond || !ok {
		t.Errorf("p90 = %v, %v (10 samples lie beyond it)", v, ok)
	}
	if _, ok := percentile(lat, 0.99); ok {
		t.Error("p99 of 100 samples reported")
	}
}
