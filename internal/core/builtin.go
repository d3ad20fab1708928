package core

import (
	"math"
	"sync"

	"powerbench/internal/server"
)

// builtinSpecs holds one calibrated copy of each built-in server, built on
// first use. The copies never leave this file, so no caller can mutate them.
var builtinSpecs = sync.OnceValue(func() map[string]*server.Spec {
	m := make(map[string]*server.Spec)
	for _, s := range server.All() {
		m[s.Name] = s
	}
	return m
})

// BuiltinMatch reports whether spec carries a built-in server's name
// (named) and whether it is that built-in (same): equal in every field
// CanonicalHash covers, so that the two always agree on identity. The
// paper's reference plan applies only to the same spec; a named spec that
// is not the same is a server of its own that borrowed the name. A spec
// under any other name costs one map lookup.
func BuiltinMatch(spec *server.Spec) (named, same bool) {
	b, ok := builtinSpecs()[spec.Name]
	if !ok {
		return false, false
	}
	return true, sameSpec(spec, b)
}

// sameSpec compares the fields appendSpec renders, in its order. Floats
// compare by bits, as their exact renderings in the hash do.
func sameSpec(a, b *server.Spec) bool {
	return a.Name == b.Name && a.ProcessorType == b.ProcessorType &&
		a.Cores == b.Cores && a.Chips == b.Chips &&
		sameBits(a.FreqMHz, b.FreqMHz) && sameBits(a.GFLOPSPerCore, b.GFLOPSPerCore) &&
		a.MemoryBytes == b.MemoryBytes && sameBits(a.MemBWBytesPerSec, b.MemBWBytesPerSec) &&
		a.L1D == b.L1D && a.L2 == b.L2 && a.L3 == b.L3 &&
		sameBits(a.IdleWatts, b.IdleWatts) &&
		sameBits(a.Coef.Active, b.Coef.Active) && sameBits(a.Coef.PerCore, b.Coef.PerCore) &&
		sameBits(a.Coef.Compute, b.Coef.Compute) && sameBits(a.Coef.FPCompute, b.Coef.FPCompute) &&
		sameBits(a.Coef.UncoreBW, b.Coef.UncoreBW) && sameBits(a.Coef.MemFoot, b.Coef.MemFoot) &&
		sameBits(a.Coef.CommPerCore, b.Coef.CommPerCore) &&
		sameCurve(a.HPLFull, b.HPLFull) && sameCurve(a.HPLHalf, b.HPLHalf) && sameCurve(a.EP, b.EP) &&
		sameBits(a.SPECpowerScore, b.SPECpowerScore) &&
		a.PrimaryCache == b.PrimaryCache && a.SecondaryCache == b.SecondaryCache &&
		a.TertiaryCache == b.TertiaryCache && a.MemoryDetails == b.MemoryDetails &&
		a.PowerSupply == b.PowerSupply && a.Disk == b.Disk
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameCurve(a, b server.AnchorCurve) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i].N, b[i].N) || !sameBits(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}
