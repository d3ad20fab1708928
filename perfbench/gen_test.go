package main

import (
	"bytes"
	"testing"

	"powerbench/internal/jobs"
)

// generators names each workload's request list for the tests.
var generators = map[string]func(seed int64, n int) []Request{
	"hit-hot": func(seed int64, n int) []Request {
		hot := hotSet(seed)
		out := make([]Request, n)
		for i := range out {
			out[i] = hot[hotIndex(seed, i, len(hot))]
		}
		return out
	},
	"miss-mix":    func(seed int64, n int) []Request { return genN(n, func(i int) Request { return missAt(seed, i) }) },
	"cold-custom": func(seed int64, n int) []Request { return genN(n, func(i int) Request { return coldAt(seed, i) }) },
	"sharded-campaign": func(seed int64, n int) []Request {
		var out []Request
		for r := 0; len(out) < n; r++ {
			spec := campaignRound(seed, r)
			if err := spec.Validate(0); err != nil {
				panic(err)
			}
			for _, pt := range spec.Expand() {
				out = append(out, pointRequest(pt))
			}
		}
		return out[:n]
	},
}

func genN(n int, at func(int) Request) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = at(i)
	}
	return out
}

func sameRequests(a, b []Request) bool {
	for i := range a {
		if a[i].Route != b[i].Route || !bytes.Equal(a[i].Body, b[i].Body) || a[i].Key != b[i].Key {
			return false
		}
	}
	return true
}

func TestGeneratorsAreSeeded(t *testing.T) {
	for name, gen := range generators {
		a, b, c := gen(7, 600), gen(7, 600), gen(8, 600)
		if !sameRequests(a, b) {
			t.Errorf("%s: the same seed generated different requests", name)
		}
		if sameRequests(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same requests", name)
		}
	}
}

func TestCustomSpecsValidate(t *testing.T) {
	for name, gen := range generators {
		for _, r := range gen(3, 2000) {
			if !r.Custom {
				continue
			}
			if err := r.Specs[0].Validate(); err != nil {
				t.Fatalf("%s: generated spec %s does not validate: %v", name, r.Specs[0].Name, err)
			}
		}
	}
	// The traced replay's and the profile probe's namespaces too.
	for i := 0; i < 1000; i++ {
		if err := coldRequest(3, i, 1).Specs[0].Validate(); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 3; k++ {
		if err := geometry(builtins[k], "p", 3, 2, k).Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestColdCustomNeverRepeatsAGeometry(t *testing.T) {
	known := map[string]bool{}
	for _, sp := range builtins {
		known[geometryKey(sp)] = true
	}
	for _, seed := range []int64{1, 2, 99} {
		seen := map[string]bool{}
		names := map[string]bool{}
		newCount := 0
		const n = 2400
		for i := 0; i < n; i++ {
			r := coldAt(seed, i)
			sp := r.Specs[0]
			if names[sp.Name] {
				t.Fatalf("seed %d: name %s repeats", seed, sp.Name)
			}
			names[sp.Name] = true
			g := geometryKey(sp)
			if !r.NewGeometry {
				if !known[g] {
					t.Fatalf("seed %d: renamed spec %d has a non-built-in geometry", seed, i)
				}
				continue
			}
			newCount++
			if known[g] || seen[g] {
				t.Fatalf("seed %d: request %d repeats geometry %s", seed, i, g)
			}
			seen[g] = true
		}
		if want := n / coldBlock * coldNew; newCount != want {
			t.Errorf("seed %d: %d new-geometry specs in %d, want %d", seed, newCount, n, want)
		}
	}
}

func TestMissMixNeverRepeatsAKey(t *testing.T) {
	for _, seed := range []int64{1, 2, 99} {
		seen := map[string]bool{}
		light := 0
		const n = 4000
		for i := 0; i < n; i++ {
			r := missAt(seed, i)
			if seen[r.Key] {
				t.Fatalf("seed %d: request %d repeats key %s", seed, i, r.Key)
			}
			seen[r.Key] = true
			if r.Fault == "light" {
				light++
			}
		}
		if light != n/4 {
			t.Errorf("seed %d: %d light requests in %d, want one in four", seed, light, n)
		}
	}
}

func TestHotSetIsDistinct(t *testing.T) {
	hot := hotSet(5)
	if len(hot) != 48 {
		t.Fatalf("hot set has %d requests, want 48", len(hot))
	}
	seen := map[string]bool{}
	for _, r := range hot {
		if seen[r.Key] {
			t.Fatalf("hot set repeats key %s", r.Key)
		}
		seen[r.Key] = true
	}
}

func TestPointRequestsCarryTheCampaignKey(t *testing.T) {
	spec := campaignRound(4, 0)
	pts := spec.Expand()
	if len(pts) != 2*campaignSeeds || len(pts) > 512 {
		t.Fatalf("a round has %d points; it must fill but fit the 512-entry cache", len(pts))
	}
	for _, pt := range pts {
		r := pointRequest(jobs.Point{Method: pt.Method, Server: pt.Server, Seed: pt.Seed, Profile: pt.Profile})
		if r.Key != pt.Key {
			t.Fatalf("point %d: request key %s, campaign key %s", pt.Index, r.Key, pt.Key)
		}
	}
}
