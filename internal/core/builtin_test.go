package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"powerbench/internal/server"
)

// The paper's reference plan follows content, not the name: a spec that
// borrows Xeon-E5462's name with 8 cores on 2 chips is planned and scored
// like the same spec under a fresh name, and only the exact built-in gets
// the published Table IV process counts and the stock score.
func TestPlanStatesContentKeyed(t *testing.T) {
	const stock = "0.0634633857" // Xeon-E5462 at seed 1
	shrunk := func(name string) *server.Spec {
		s := server.XeonE5462()
		s.Name, s.Cores, s.Chips = name, 8, 2
		return s
	}
	renamed := shrunk("Xeon-E5462-8c")
	wantPlan, err := PlanStates(renamed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EvaluateCtx(context.Background(), renamed, 1, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		spec      *server.Spec
		named     bool
		same      bool
		stockPlan bool
	}{
		{"built-in name, different content", shrunk("Xeon-E5462"), true, false, false},
		{"exact built-in", server.XeonE5462(), true, true, true},
		{"fresh name, different content", renamed, false, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			named, same := BuiltinMatch(tc.spec)
			if named != tc.named || same != tc.same {
				t.Fatalf("BuiltinMatch = (%t, %t), want (%t, %t)", named, same, tc.named, tc.same)
			}
			plan, err := PlanStates(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			ev, err := EvaluateCtx(context.Background(), tc.spec, 1, EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			score := fmt.Sprintf("%.10f", ev.Score)
			if tc.stockPlan {
				if score != stock {
					t.Errorf("score %s, want the stock %s", score, stock)
				}
				return
			}
			if !reflect.DeepEqual(plan, wantPlan) {
				t.Errorf("plan differs from the renamed spec's Table III plan")
			}
			// The name still seeds the meter noise, so the two scores agree
			// to the noise floor, far from the stock figure.
			if d := math.Abs(ev.Score - want.Score); d > 1e-4 {
				t.Errorf("score %s, renamed spec scores %.10f", score, want.Score)
			}
			if score == stock {
				t.Errorf("scored the stock %s: the built-in's plan leaked through its name", stock)
			}
		})
	}
}

// inertFields lists the Spec fields that do not move a custom spec's
// evaluate score by the sensitivity threshold, each with the reason.
var inertFields = map[string]string{
	"Name":           "seeds the meter noise streams only (~1e-5 relative)",
	"ProcessorType":  "Table I descriptive string, report only",
	"Chips":          "the power model counts busy cores, not sockets",
	"FreqMHz":        "scales PMU instruction rates only; power coefficients are calibrated at nominal frequency (EXPERIMENTS.md)",
	"MemoryBytes":    "HPL is sized by memory fraction, so runs lengthen without changing GFLOPS or power (~1e-5 via sample count)",
	"L1D.Name":       "cache level label",
	"L1D.SizeBytes":  "cache geometry feeds the PMU counter profile, not power",
	"L1D.LineBytes":  "cache geometry feeds the PMU counter profile, not power",
	"L1D.Ways":       "cache geometry feeds the PMU counter profile, not power",
	"L2.Name":        "cache level label",
	"L2.SizeBytes":   "cache geometry feeds the PMU counter profile, not power",
	"L2.LineBytes":   "cache geometry feeds the PMU counter profile, not power",
	"L2.Ways":        "cache geometry feeds the PMU counter profile, not power",
	"L3.Name":        "cache level label",
	"L3.SizeBytes":   "cache geometry feeds the PMU counter profile, not power",
	"L3.LineBytes":   "cache geometry feeds the PMU counter profile, not power",
	"L3.Ways":        "cache geometry feeds the PMU counter profile, not power",
	"SPECpowerScore": "calibrates the ssj workload, which evaluate does not run",
	"PrimaryCache":   "Table I descriptive string, report only",
	"SecondaryCache": "Table I descriptive string, report only",
	"TertiaryCache":  "Table I descriptive string, report only",
	"MemoryDetails":  "Table I descriptive string, report only",
	"PowerSupply":    "Table I descriptive string, report only",
	"Disk":           "Table I descriptive string, report only",
}

// specLeaves lists every leaf field of server.Spec (struct fields expanded,
// anchor curves whole) as a dotted name and its reflect index path.
func specLeaves() (names []string, paths [][]int) {
	var walk func(tp reflect.Type, idx []int, prefix string)
	walk = func(tp reflect.Type, idx []int, prefix string) {
		for i := 0; i < tp.NumField(); i++ {
			f := tp.Field(i)
			p := append(append([]int(nil), idx...), i)
			if f.Type.Kind() == reflect.Struct {
				walk(f.Type, p, prefix+f.Name+".")
				continue
			}
			names = append(names, prefix+f.Name)
			paths = append(paths, p)
		}
	}
	walk(reflect.TypeOf(server.Spec{}), nil, "")
	return names, paths
}

// perturb changes one leaf of spec while keeping it valid: strings gain a
// suffix, numbers double (zero becomes one), anchor values double.
func perturb(t *testing.T, spec *server.Spec, path []int) {
	fv := reflect.ValueOf(spec).Elem().FieldByIndex(path)
	switch fv.Kind() {
	case reflect.String:
		fv.SetString(fv.String() + "-x")
	case reflect.Int:
		fv.SetInt(2 * max(fv.Int(), 1))
	case reflect.Uint64:
		fv.SetUint(2 * max(fv.Uint(), 1))
	case reflect.Float64:
		fv.SetFloat(2 * math.Max(fv.Float(), 0.5))
	case reflect.Slice:
		curve := make(server.AnchorCurve, fv.Len())
		for i, p := range fv.Interface().(server.AnchorCurve) {
			curve[i] = server.AnchorPoint{N: p.N, Value: 2 * p.Value}
		}
		fv.Set(reflect.ValueOf(curve))
	default:
		t.Fatalf("no perturbation for a %s field; extend perturb", fv.Kind())
	}
}

// TestSpecFieldSensitivity walks every Spec field. Each must be covered by
// CanonicalHash and by BuiltinMatch, and each must either move a custom
// spec's evaluate score by at least the threshold or be listed in
// inertFields — and a listed field must really stay under it, so the list
// cannot go stale.
func TestSpecFieldSensitivity(t *testing.T) {
	const threshold = 1e-4 // relative; the name's noise reseeding moves ~1e-5
	custom := func() *server.Spec {
		s := server.Opteron8347() // the built-in with all three cache levels
		s.Name = "sensitivity-probe"
		return s
	}
	base, err := EvaluateCtx(context.Background(), custom(), 1, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := HashOpts{Method: "evaluate"}
	h0 := CanonicalHash(custom(), 1, opts)
	names, paths := specLeaves()
	seen := map[string]bool{}
	for i, name := range names {
		seen[name] = true
		t.Run(name, func(t *testing.T) {
			builtin := server.Opteron8347()
			perturb(t, builtin, paths[i])
			if named, same := BuiltinMatch(builtin); same || named != (name != "Name") {
				t.Errorf("BuiltinMatch on a perturbed built-in = (%t, %t)", named, same)
			}
			spec := custom()
			perturb(t, spec, paths[i])
			if CanonicalHash(spec, 1, opts) == h0 {
				t.Fatal("CanonicalHash does not cover the field")
			}
			if err := spec.Validate(); err != nil {
				t.Fatalf("perturbed spec invalid: %v", err)
			}
			ev, err := EvaluateCtx(context.Background(), spec, 1, EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rel := math.Abs(ev.Score-base.Score) / base.Score
			reason, inert := inertFields[name]
			switch {
			case inert && rel >= threshold:
				t.Errorf("listed inert (%s) but moves the score by %.3g", reason, rel)
			case !inert && rel < threshold:
				t.Errorf("moves the score by only %.3g: list it in inertFields with a reason", rel)
			}
		})
	}
	for name := range inertFields {
		if !seen[name] {
			t.Errorf("inertFields names %q, which is not a Spec field", name)
		}
	}
}
