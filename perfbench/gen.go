package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"powerbench/internal/core"
	"powerbench/internal/jobs"
	"powerbench/internal/server"
)

// This file generates every input the benchmark sends. All of it is a pure
// function of the workload seed: request i of a workload is derived from
// (seed, i) alone, so the two load-generator connections can take requests
// in any interleaving and a seed always names the same request list.

// Request is one generated HTTP request plus what the benchmark knows about
// it: the daemon's cache key, the resolved systems and the expected cache
// header.
type Request struct {
	Route  string // "/v1/evaluate", "/v1/green500" or "/v1/compare"
	Body   []byte
	Key    string // the daemon's content-addressed cache key
	Method string // evaluate | green500 | compare
	Specs  []*server.Spec
	Seed   float64
	Fault  string // "" (clean) or "light"
	// Custom marks a body that carries a full custom spec; NewGeometry
	// marks a custom spec whose cache geometry no built-in has.
	Custom      bool
	NewGeometry bool
}

// builtins are the three Table I servers in the paper's order.
var builtins = server.All()

// splitmix64 is the counter-based mixer behind every generated choice.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix derives an independent 64-bit value from the seed, a stream salt and
// an index.
func mix(seed int64, salt string, i int) uint64 {
	h := splitmix64(uint64(seed))
	for _, c := range []byte(salt) {
		h = splitmix64(h ^ uint64(c))
	}
	return splitmix64(h ^ uint64(i))
}

// perm returns the permutation of [0,n) that (seed, salt, block) selects.
func perm(seed int64, salt string, block, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, salt, block*n+i) % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// seedBase is the first evaluation seed a workload uses: distinct bench
// seeds give disjoint request seeds, hence disjoint cache keys.
func seedBase(seed int64, salt string) float64 {
	return float64(1+mix(seed, salt, -1)%100000) * 100000
}

func evalRequest(method string, spec *server.Spec, custom bool, seed float64, fault string) Request {
	body := map[string]any{"seed": seed}
	if custom {
		body["spec"] = spec
	} else {
		body["server"] = spec.Name
	}
	if fault != "" {
		body["fault_profile"] = fault
	}
	return Request{
		Route:  "/v1/" + method,
		Body:   mustJSON(body),
		Key:    method + "|" + core.CanonicalHash(spec, seed, core.HashOpts{Method: method, FaultProfile: fault}),
		Method: method,
		Specs:  []*server.Spec{spec},
		Seed:   seed,
		Fault:  fault,
		Custom: custom,
	}
}

func compareRequest(specs []*server.Spec, seed float64, fault string) Request {
	names := make([]string, len(specs))
	hashes := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
		hashes[i] = core.CanonicalHash(sp, seed, core.HashOpts{Method: "compare", FaultProfile: fault})
	}
	body := map[string]any{"servers": names, "seed": seed}
	if fault != "" {
		body["fault_profile"] = fault
	}
	return Request{
		Route:  "/v1/compare",
		Body:   mustJSON(body),
		Key:    "compare|" + strings.Join(hashes, "+"),
		Method: "compare",
		Specs:  specs,
		Seed:   seed,
		Fault:  fault,
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // maps of specs and numbers always marshal
	}
	return b
}

// renamed returns a copy of a built-in spec under a new name: the same
// cache geometry, so only the name-keyed memos see it as new.
func renamed(base *server.Spec, name string) *server.Spec {
	c := *base
	c.Name = name
	return &c
}

// hotSet is the hit-hot working set: 48 distinct requests, all warmed in
// set-up. 30 named evaluate/green500 bodies (3 servers × 2 methods × 5
// seeds), 6 compare keys, and 12 custom-spec evaluate bodies that keep
// large-body decode and Spec.Validate on the hit path.
func hotSet(seed int64) []Request {
	base := seedBase(seed, "hit-hot")
	var out []Request
	for s := 0; s < 5; s++ {
		for _, sp := range builtins {
			for _, m := range []string{"evaluate", "green500"} {
				out = append(out, evalRequest(m, sp, false, base+float64(s), ""))
			}
		}
	}
	for k := 0; k < 6; k++ {
		specs := builtins
		if k%2 == 1 {
			specs = []*server.Spec{builtins[k%3], builtins[(k+1)%3]}
		}
		out = append(out, compareRequest(specs, base+100+float64(k), ""))
	}
	tag := mix(seed, "hit-hot-name", 0) % (1 << 32)
	for k := 0; k < 12; k++ {
		sp := renamed(builtins[k%3], fmt.Sprintf("hot-%08x-%d", tag, k))
		out = append(out, evalRequest("evaluate", sp, true, base+200+float64(k), ""))
	}
	return out
}

// hotIndex is the hot-set entry hit-hot request i draws (uniformly).
func hotIndex(seed int64, i, n int) int {
	return int(mix(seed, "hit-hot-draw", i) % uint64(n))
}

// missBlock is the length of one miss-mix block: two green500s on rotating
// built-ins, an evaluate on the Xeon-E5462 and on the Xeon-4870, three on
// the Opteron-8347 and a three-server compare. Blocks keep the cost mix
// identical from seed to seed (the seed only permutes the order within a
// block), and the weighting puts the median request inside one cost class
// (Opteron evaluates) rather than on the edge between two, where it would
// jump from run to run.
const missBlock = 8

// missAt is miss-mix request i: every request has its own evaluation seed,
// so no key repeats, and two of every eight run fault_profile light.
func missAt(seed int64, i int) Request {
	b, pos := i/missBlock, i%missBlock
	kind := perm(seed, "miss-mix", b, missBlock)[pos]
	fault := ""
	if kind == b%missBlock || kind == (b+missBlock/2)%missBlock {
		fault = "light"
	}
	s := seedBase(seed, "miss-mix") + float64(i)
	switch kind {
	case 0, 1:
		return evalRequest("green500", builtins[(b+kind)%3], false, s, fault)
	case 2:
		return evalRequest("evaluate", builtins[0], false, s, fault)
	case 3, 4, 5:
		return evalRequest("evaluate", builtins[1], false, s, fault)
	case 6:
		return evalRequest("evaluate", builtins[2], false, s, fault)
	default:
		return compareRequest(builtins, s, fault)
	}
}

// coldBlock is one cold-custom block: seven specs with a geometry never
// profiled (two per built-in plus one on a rotating built-in) and five
// renamed copies of a built-in geometry. Slightly more than half are new so
// that the median request lies inside the new-geometry cost class instead
// of on the edge between the two classes.
const coldBlock = 12

// coldNew is how many specs of a block carry a new geometry.
const coldNew = 7

// geometryCombos is how many distinct new geometries geometry can derive
// per built-in and namespace (511 sizes × 3 associativities).
const geometryCombos = 511 * 3

// geometry returns a copy of base whose last cache level (L3, or L2 when
// the spec has no L3) is resized and re-associated: ordinal n in
// namespace ns maps to a distinct geometry for n < geometryCombos, and the
// associativities used (4, 8, 16) differ from every built-in's, so no
// generated geometry is a built-in one. Profile cost is flat across this
// range (about 50 to 70 ms per spec on a 2-vCPU host), which keeps seeds
// comparable.
func geometry(base *server.Spec, name string, seed int64, ns, n int) *server.Spec {
	// 1024 is coprime with geometryCombos, so n -> q is a bijection.
	q := (n*1024 + int(mix(seed, "geometry", ns)%geometryCombos)) % geometryCombos
	c := renamed(base, name)
	lvl := &c.L3
	if c.L3.SizeBytes == 0 {
		lvl = &c.L2
	}
	lvl.SizeBytes += (1 + ns*511 + q/3) * 2048
	lvl.Ways = []int{4, 8, 16}[q%3]
	return c
}

// coldAt is cold-custom request i: every request carries a custom spec
// under a fresh name; half of them also have a fresh geometry.
func coldAt(seed int64, i int) Request { return coldRequest(seed, i, 0) }

// coldRequest is coldAt drawing its new geometries from namespace ns; the
// traced replay uses namespace 1, which the timed phase never touches.
func coldRequest(seed int64, i, ns int) Request {
	b, pos := i/coldBlock, i%coldBlock
	slot := perm(seed, "cold-custom", b, coldBlock)[pos]
	base := builtins[(b+slot)%3]
	name := fmt.Sprintf("cc-%08x-%d-%d", mix(seed, "cold-name", 0)%(1<<32), ns, i)
	s := seedBase(seed, "cold-custom") + float64(i)
	if slot < coldNew {
		r := evalRequest("evaluate", geometry(base, name, seed, ns, b*coldNew+slot), true, s, "")
		r.NewGeometry = true
		return r
	}
	return evalRequest("evaluate", renamed(base, name), true, s, "")
}

// geometryKey identifies a spec's profiled cache geometry.
func geometryKey(sp *server.Spec) string {
	return fmt.Sprintf("%v/%v/%v", sp.L1D, sp.L2, sp.L3)
}

// campaignSeeds is how many seeds one sharded-campaign round sweeps; the
// round's 2×campaignSeeds points must fit the owner's 512-entry cache.
const campaignSeeds = 240

// campaignRound is the sweep submitted in round r: evaluate and green500 on
// the Xeon-E5462 over a fresh seed range. The cheapest built-in keeps a
// round short (about half a second of compute), so peer reads, jobs and
// cluster work are a real share of the run rather than a sliver beside
// the simulation of the two big servers.
func campaignRound(seed int64, r int) *jobs.SweepSpec {
	from := seedBase(seed, "sharded-campaign") + float64(r*campaignSeeds)
	return &jobs.SweepSpec{
		Name:      fmt.Sprintf("perfbench-%d-%d", seed, r),
		Client:    "perfbench",
		Methods:   []string{"evaluate", "green500"},
		Servers:   []string{builtins[0].Name},
		SeedRange: &jobs.SeedRange{From: from, To: from + campaignSeeds - 1, Step: 1},
	}
}

// pointRequest is the public request that reads a campaign point back.
func pointRequest(pt jobs.Point) Request {
	sp, err := server.ByName(pt.Server)
	if err != nil {
		panic(err) // campaign points name built-ins only
	}
	fault := ""
	if pt.Profile != "none" {
		fault = pt.Profile
	}
	return evalRequest(pt.Method, sp, false, pt.Seed, fault)
}
