package core

import (
	"encoding/json"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"powerbench/internal/server"
)

// Reordering fields in a JSON spec must not change the canonical hash: the
// hash is a function of the decoded struct, not of the wire bytes.
func TestCanonicalHashJSONFieldOrderInvariant(t *testing.T) {
	a := `{
		"Name": "custom", "ProcessorType": "TestChip", "Cores": 8, "Chips": 2,
		"FreqMHz": 2500, "GFLOPSPerCore": 10, "MemoryBytes": 8589934592,
		"MemBWBytesPerSec": 2.5e10, "IdleWatts": 120
	}`
	b := `{
		"IdleWatts": 120, "MemBWBytesPerSec": 2.5e10, "MemoryBytes": 8589934592,
		"GFLOPSPerCore": 10, "FreqMHz": 2500,
		"Chips": 2, "Cores": 8, "ProcessorType": "TestChip", "Name": "custom"
	}`
	var sa, sb server.Spec
	if err := json.Unmarshal([]byte(a), &sa); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b), &sb); err != nil {
		t.Fatal(err)
	}
	opts := HashOpts{Method: "evaluate"}
	ha := CanonicalHash(&sa, 1, opts)
	hb := CanonicalHash(&sb, 1, opts)
	if ha != hb {
		t.Errorf("field reordering changed the hash:\n  %s\n  %s", ha, hb)
	}
	if len(ha) != 64 {
		t.Errorf("hash %q is not a sha256 hex digest", ha)
	}
}

// Every input the hash covers must perturb it.
func TestCanonicalHashSensitivity(t *testing.T) {
	base := server.XeonE5462()
	opts := HashOpts{Method: "evaluate"}
	h0 := CanonicalHash(base, 1, opts)

	if h := CanonicalHash(base, 2, opts); h == h0 {
		t.Error("seed change did not change the hash")
	}
	if h := CanonicalHash(base, 1, HashOpts{Method: "green500"}); h == h0 {
		t.Error("method change did not change the hash")
	}
	if h := CanonicalHash(base, 1, HashOpts{Method: "evaluate", FaultProfile: "heavy"}); h == h0 {
		t.Error("fault profile change did not change the hash")
	}
	mod := server.XeonE5462()
	mod.IdleWatts++
	if h := CanonicalHash(mod, 1, opts); h == h0 {
		t.Error("spec change did not change the hash")
	}
	// Adjacent string fields must not alias under concatenation.
	x := server.XeonE5462()
	x.Name, x.ProcessorType = "ab", "c"
	y := server.XeonE5462()
	y.Name, y.ProcessorType = "a", "bc"
	if CanonicalHash(x, 1, opts) == CanonicalHash(y, 1, opts) {
		t.Error("adjacent string fields alias in the canonical rendering")
	}
}

// "" and "none" both name the clean path and must hash identically, and the
// hash must be stable across calls (no map iteration, no time).
func TestCanonicalHashStability(t *testing.T) {
	spec := server.Xeon4870()
	a := CanonicalHash(spec, 7, HashOpts{Method: "evaluate", FaultProfile: ""})
	b := CanonicalHash(spec, 7, HashOpts{Method: "evaluate", FaultProfile: "none"})
	if a != b {
		t.Errorf("empty and %q fault profiles hash differently", "none")
	}
	for i := 0; i < 10; i++ {
		if got := CanonicalHash(spec, 7, HashOpts{Method: "evaluate"}); got != a {
			t.Fatalf("hash not stable across calls: %s vs %s", got, a)
		}
	}
}

// The append-built hash equals the fmt-based reference for every built-in,
// every built-in look-alike that differs in one field, and a sparse custom
// spec, across exotic values.
func TestCanonicalHashMatchesReference(t *testing.T) {
	strs := []string{"", "Xeon-E5462", "a:b;c", "多字节", "\xff"}
	floats := []float64{0, math.Copysign(0, -1), 1, -2.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 2800, 999999, -1e6}
	ints := []int64{0, -1, 4, math.MinInt64, math.MaxInt64}
	n := 0
	for base := uint8(0); base < 4; base++ {
		for field := 0; field <= len(specFields); field++ {
			for k := 0; k < len(floats); k++ {
				spec := fuzzBase(base)
				if field < len(specFields) {
					specFields[field](spec, strs[k%len(strs)], floats[k], ints[k%len(ints)], 7*k)
				}
				opts := HashOpts{Method: "evaluate", FaultProfile: strs[(k+1)%len(strs)]}
				seed := floats[(k+3)%len(floats)]
				if got, want := CanonicalHash(spec, seed, opts), referenceCanonicalHash(spec, seed, opts); got != want {
					t.Fatalf("base %d field %d value %d: CanonicalHash %s, reference %s", base, field, k, got, want)
				}
				n++
			}
		}
	}
	t.Logf("%d specs agree with the reference", n)
}

// TestCanonicalHashAllocs gates the hash at two allocations for a built-in
// and for a custom spec, both rendered into a stack buffer: the hex string,
// and at most one more.
func TestCanonicalHashAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime adds allocations of its own")
	}
	builtin := server.Xeon4870()
	custom := server.Xeon4870()
	custom.Name = "custom-4870"
	opts := HashOpts{Method: "evaluate"}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name string
		spec *server.Spec
	}{{"builtin", builtin}, {"custom", custom}} {
		allocs := testing.AllocsPerRun(100, func() { CanonicalHash(c.spec, 1, opts) })
		if allocs > 2 {
			t.Errorf("%s: CanonicalHash made %.0f allocations, want ≤ 2", c.name, allocs)
		}
	}
}

// hashSink keeps the benchmarked hashes live.
var hashSink string

// BenchmarkCanonicalHash times the append-built hash against the fmt-based
// reference on a custom spec; CI gates the ratio.
func BenchmarkCanonicalHash(b *testing.B) {
	spec := server.Opteron8347()
	spec.Name = "custom-8347"
	opts := HashOpts{Method: "evaluate"}
	for _, c := range []struct {
		name string
		hash func(*server.Spec, float64, HashOpts) string
	}{{"fast", CanonicalHash}, {"reference", referenceCanonicalHash}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashSink = c.hash(spec, 1, opts)
			}
		})
	}
}
