package core

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"powerbench/internal/server"
)

// specField sets one Spec field from the fuzzer's string, float and int
// inputs; curveLen sizes a replaced anchor curve.
type specField func(s *server.Spec, str string, fv float64, iv int64, curveLen int)

// fuzzCurve builds a curve of n points from the fuzzer's float and int,
// so curves carry the same exotic values as scalar fields.
func fuzzCurve(fv float64, iv int64, n int) server.AnchorCurve {
	c := make(server.AnchorCurve, n)
	for k := range c {
		c[k] = server.AnchorPoint{N: fv + float64(k), Value: math.Float64frombits(uint64(iv) + uint64(k))}
	}
	return c
}

// specFields lists one setter per field CanonicalHash covers, in its order.
// An index past the end leaves the spec unchanged, which for a built-in
// base is the exact built-in.
var specFields = []specField{
	func(s *server.Spec, str string, _ float64, _ int64, _ int) { s.Name = str },
	func(s *server.Spec, str string, _ float64, _ int64, _ int) { s.ProcessorType = str },
	func(s *server.Spec, _ string, _ float64, iv int64, _ int) { s.Cores = int(iv) },
	func(s *server.Spec, _ string, _ float64, iv int64, _ int) { s.Chips = int(iv) },
	func(s *server.Spec, _ string, fv float64, _ int64, _ int) { s.FreqMHz = fv },
	func(s *server.Spec, _ string, fv float64, _ int64, _ int) { s.GFLOPSPerCore = fv },
	func(s *server.Spec, _ string, _ float64, iv int64, _ int) { s.MemoryBytes = uint64(iv) },
	func(s *server.Spec, _ string, fv float64, _ int64, _ int) { s.MemBWBytesPerSec = fv },
	func(s *server.Spec, str string, _ float64, iv int64, _ int) { s.L1D.Name, s.L1D.Ways = str, int(iv) },
	func(s *server.Spec, _ string, _ float64, iv int64, _ int) { s.L2.SizeBytes = int(iv) },
	func(s *server.Spec, _ string, _ float64, iv int64, _ int) { s.L3.LineBytes = int(iv) },
	func(s *server.Spec, _ string, fv float64, _ int64, _ int) { s.IdleWatts = fv },
	func(s *server.Spec, _ string, fv float64, _ int64, _ int) { s.Coef.Active = fv },
	func(s *server.Spec, _ string, fv float64, _ int64, _ int) { s.Coef.PerCore = fv },
	func(s *server.Spec, _ string, fv float64, _ int64, _ int) { s.Coef.Compute = fv },
	func(s *server.Spec, _ string, fv float64, _ int64, _ int) { s.Coef.FPCompute = fv },
	func(s *server.Spec, _ string, fv float64, _ int64, _ int) { s.Coef.UncoreBW = fv },
	func(s *server.Spec, _ string, fv float64, _ int64, _ int) { s.Coef.MemFoot = fv },
	func(s *server.Spec, _ string, fv float64, _ int64, _ int) { s.Coef.CommPerCore = fv },
	func(s *server.Spec, _ string, fv float64, iv int64, n int) { s.HPLFull = fuzzCurve(fv, iv, n) },
	func(s *server.Spec, _ string, fv float64, iv int64, n int) { s.HPLHalf = fuzzCurve(fv, iv, n) },
	func(s *server.Spec, _ string, fv float64, iv int64, n int) { s.EP = fuzzCurve(fv, iv, n) },
	func(s *server.Spec, _ string, fv float64, _ int64, _ int) { s.SPECpowerScore = fv },
	func(s *server.Spec, str string, _ float64, _ int64, _ int) { s.PrimaryCache = str },
	func(s *server.Spec, str string, _ float64, _ int64, _ int) { s.SecondaryCache = str },
	func(s *server.Spec, str string, _ float64, _ int64, _ int) { s.TertiaryCache = str },
	func(s *server.Spec, str string, _ float64, _ int64, _ int) { s.MemoryDetails = str },
	func(s *server.Spec, str string, _ float64, _ int64, _ int) { s.PowerSupply = str },
	func(s *server.Spec, str string, _ float64, _ int64, _ int) { s.Disk = str },
}

// fuzzBase returns built-in i (0–2) or, for any other i, a sparse custom
// spec with empty curves and no L3.
func fuzzBase(i uint8) *server.Spec {
	switch i % 4 {
	case 0:
		return server.XeonE5462()
	case 1:
		return server.Opteron8347()
	case 2:
		return server.Xeon4870()
	}
	return &server.Spec{Name: "custom", Cores: 8, Chips: 2, FreqMHz: 2500, IdleWatts: 120}
}

// hashRequest mirrors the spec-carrying part of an evaluate request body.
type hashRequest struct {
	Spec         *server.Spec `json:"spec"`
	Seed         float64      `json:"seed"`
	FaultProfile string       `json:"fault_profile"`
}

// permuteJSON re-encodes a JSON value with the keys of every object in a
// different order: sorted, then rotated by rot and reversed when rev is set
// (rot and rev advance per object so nested objects differ too).
func permuteJSON(t *testing.T, buf *bytes.Buffer, v any, rot int, rev bool) {
	switch x := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if n := len(keys); n > 0 {
			r := rot % n
			keys = append(keys[r:], keys[:r]...)
		}
		if rev {
			for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
		buf.WriteByte('{')
		for i, k := range keys {
			if i > 0 {
				buf.WriteByte(',')
			}
			kb, err := json.Marshal(k)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(kb)
			buf.WriteByte(':')
			permuteJSON(t, buf, x[k], rot+i+1, !rev)
		}
		buf.WriteByte('}')
	case []any:
		buf.WriteByte('[')
		for i, e := range x {
			if i > 0 {
				buf.WriteByte(',')
			}
			permuteJSON(t, buf, e, rot, rev)
		}
		buf.WriteByte(']')
	default:
		b, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
}

// decodeHash decodes a request body and returns its canonical key.
func decodeHash(t *testing.T, body []byte) string {
	var r hashRequest
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return CanonicalHash(r.Spec, r.Seed, HashOpts{Method: "evaluate", FaultProfile: r.FaultProfile})
}

// FuzzCanonicalHashDifferential checks the append-built CanonicalHash
// against the fmt-based reference on specs that differ from a built-in (or
// a sparse custom spec) in one field, with exotic strings, floats, ints and
// curve lengths. A body whose JSON keys are permuted must decode to the
// same key as the same body in declared order.
func FuzzCanonicalHashDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(255), "", 0.0, int64(0), uint8(0), 1.0, "evaluate", "")
	f.Add(uint8(1), uint8(0), "Xeon-E5462", 1.0, int64(4), uint8(9), 42.0, "compare", "none")
	f.Add(uint8(0), uint8(0), "Opteron-8347", 0.0, int64(0), uint8(0), 7.0, "green500", "light")
	f.Add(uint8(2), uint8(9), "a:b;c", math.Copysign(0, -1), int64(math.MinInt64), uint8(64), -1.0, "evaluate", "heavy")
	f.Add(uint8(3), uint8(1), "多字节;:", math.NaN(), int64(math.MaxInt64), uint8(3), math.Inf(1), "ev:al;", "x")
	f.Add(uint8(1), uint8(4), "", math.SmallestNonzeroFloat64, int64(-1), uint8(1), math.Inf(-1), "", "")
	f.Add(uint8(2), uint8(19), "\xff\xfe", math.MaxFloat64, int64(1<<53+1), uint8(0), 5e-324, "green500", "none")
	f.Add(uint8(0), uint8(21), "", 2.2250738585072014e-308, int64(3), uint8(64), 0.1, "evaluate", "")
	f.Add(uint8(0), uint8(28), "400 GB, integrated SAS controller;", 1e300, int64(0), uint8(2), 1e-300, "compare", "light")
	f.Fuzz(func(t *testing.T, base, field uint8, str string, fv float64, iv int64, curveLen uint8, seed float64, method, profile string) {
		spec := fuzzBase(base)
		if int(field) < len(specFields) {
			specFields[field](spec, str, fv, iv, int(curveLen)%65)
		}
		opts := HashOpts{Method: method, FaultProfile: profile}
		got, want := CanonicalHash(spec, seed, opts), referenceCanonicalHash(spec, seed, opts)
		if got != want {
			t.Fatalf("CanonicalHash %s, reference %s (base %d, field %d)", got, want, base, field)
		}

		body, err := json.Marshal(hashRequest{Spec: spec, Seed: seed, FaultProfile: profile})
		if err != nil {
			return // NaN and ±Inf have no JSON form
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.UseNumber()
		var tree any
		if err := dec.Decode(&tree); err != nil {
			t.Fatal(err)
		}
		var permuted bytes.Buffer
		permuteJSON(t, &permuted, tree, int(field)+1, base%2 == 1)
		if a, b := decodeHash(t, body), decodeHash(t, permuted.Bytes()); a != b {
			t.Fatalf("permuted keys changed the key: %s vs %s\n%s\n%s", a, b, body, permuted.Bytes())
		}
	})
}
