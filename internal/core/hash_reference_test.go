package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"powerbench/internal/cache"
	"powerbench/internal/server"
)

// This file keeps the fmt-based canonical rendering CanonicalHash shipped
// with before it was built by appending into one buffer. It is the oracle
// the append-built hash is tested against: the two must agree on every
// input, which is what keeps cache keys, flight ids and trace ids stable.

// referenceCanonicalHash is the fmt-based CanonicalHash.
func referenceCanonicalHash(spec *server.Spec, seed float64, opts HashOpts) string {
	h := sha256.New()
	writeString(h, "powerbench-canonical-v1")
	writeString(h, opts.Method)
	profile := opts.FaultProfile
	if profile == "" {
		profile = "none"
	}
	writeString(h, profile)
	writeFloat(h, seed)
	writeSpec(h, spec)
	return hex.EncodeToString(h.Sum(nil))
}

// writeString writes a length-prefixed string so that adjacent fields can
// never alias ("ab"+"c" vs "a"+"bc").
func writeString(w io.Writer, s string) {
	fmt.Fprintf(w, "%d:%s;", len(s), s)
}

// writeFloat renders a float with strconv's exact shortest round-trip form,
// so every distinct float64 bit pattern (NaN aside) hashes distinctly and
// equal values always hash equally.
func writeFloat(w io.Writer, v float64) {
	writeString(w, strconv.FormatFloat(v, 'g', -1, 64))
}

func writeInt(w io.Writer, v int64) {
	writeString(w, strconv.FormatInt(v, 10))
}

func writeCache(w io.Writer, c cache.Config) {
	writeString(w, c.Name)
	writeInt(w, int64(c.SizeBytes))
	writeInt(w, int64(c.LineBytes))
	writeInt(w, int64(c.Ways))
}

func writeCurve(w io.Writer, c server.AnchorCurve) {
	writeInt(w, int64(len(c)))
	for _, p := range c {
		writeFloat(w, p.N)
		writeFloat(w, p.Value)
	}
}

// writeSpec renders every Spec field in declared order. The descriptive
// Table I strings are included too: they do not perturb the simulation,
// but a cache key must cover everything a response could echo.
func writeSpec(w io.Writer, s *server.Spec) {
	writeString(w, s.Name)
	writeString(w, s.ProcessorType)
	writeInt(w, int64(s.Cores))
	writeInt(w, int64(s.Chips))
	writeFloat(w, s.FreqMHz)
	writeFloat(w, s.GFLOPSPerCore)
	writeInt(w, int64(s.MemoryBytes))
	writeFloat(w, s.MemBWBytesPerSec)
	writeCache(w, s.L1D)
	writeCache(w, s.L2)
	writeCache(w, s.L3)
	writeFloat(w, s.IdleWatts)
	writeFloat(w, s.Coef.Active)
	writeFloat(w, s.Coef.PerCore)
	writeFloat(w, s.Coef.Compute)
	writeFloat(w, s.Coef.FPCompute)
	writeFloat(w, s.Coef.UncoreBW)
	writeFloat(w, s.Coef.MemFoot)
	writeFloat(w, s.Coef.CommPerCore)
	writeCurve(w, s.HPLFull)
	writeCurve(w, s.HPLHalf)
	writeCurve(w, s.EP)
	writeFloat(w, s.SPECpowerScore)
	writeString(w, s.PrimaryCache)
	writeString(w, s.SecondaryCache)
	writeString(w, s.TertiaryCache)
	writeString(w, s.MemoryDetails)
	writeString(w, s.PowerSupply)
	writeString(w, s.Disk)
}
