package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"

	"powerbench/internal/cache"
	"powerbench/internal/server"
)

// HashOpts names the evaluation variant a CanonicalHash key covers. Only
// options that can change the result bytes belong here: worker counts,
// telemetry and retry backoff are deliberately excluded because the
// pipeline guarantees byte-identical output across them.
type HashOpts struct {
	// Method is the evaluation flavor: "evaluate", "green500" or "compare".
	Method string
	// FaultProfile is the active fault-injection profile name ("" and
	// "none" hash identically: both select the clean path).
	FaultProfile string
}

// hashBufSize covers the rendering of a Table I server with room to spare,
// so a typical key is built without growing the buffer.
const hashBufSize = 1024

// CanonicalHash returns a deterministic, content-addressed key for one
// (spec, seed, opts) evaluation request: the SHA-256 of a canonical
// rendering that writes every Spec field in declared order with exact
// float formatting. Because the hash is computed from the decoded struct,
// not from the request's wire bytes, two JSON requests that differ only in
// field order (or whitespace) produce the same key — the property the
// serve layer's result cache and request dedup rely on.
func CanonicalHash(spec *server.Spec, seed float64, opts HashOpts) string {
	var buf [hashBufSize]byte
	b := appendString(buf[:0], "powerbench-canonical-v1")
	b = appendString(b, opts.Method)
	profile := opts.FaultProfile
	if profile == "" {
		profile = "none"
	}
	b = appendString(b, profile)
	b = appendFloat(b, seed)
	b = appendSpec(b, spec)
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// appendString appends the frame "len:s;". The length prefix keeps adjacent
// fields from aliasing ("ab"+"c" vs "a"+"bc").
func appendString(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	b = append(b, s...)
	return append(b, ';')
}

// appendValue appends the frame "len:v;" for an already rendered value.
func appendValue(b, v []byte) []byte {
	b = strconv.AppendInt(b, int64(len(v)), 10)
	b = append(b, ':')
	b = append(b, v...)
	return append(b, ';')
}

// appendFloat renders a float with strconv's exact shortest round-trip
// form, so every distinct float64 bit pattern (NaN aside) hashes distinctly
// and equal values always hash equally.
func appendFloat(b []byte, v float64) []byte {
	var tmp [32]byte
	return appendValue(b, strconv.AppendFloat(tmp[:0], v, 'g', -1, 64))
}

func appendInt(b []byte, v int64) []byte {
	var tmp [24]byte
	return appendValue(b, strconv.AppendInt(tmp[:0], v, 10))
}

func appendCache(b []byte, c cache.Config) []byte {
	b = appendString(b, c.Name)
	b = appendInt(b, int64(c.SizeBytes))
	b = appendInt(b, int64(c.LineBytes))
	return appendInt(b, int64(c.Ways))
}

func appendCurve(b []byte, c server.AnchorCurve) []byte {
	b = appendInt(b, int64(len(c)))
	for _, p := range c {
		b = appendFloat(b, p.N)
		b = appendFloat(b, p.Value)
	}
	return b
}

// appendSpec renders every Spec field in declared order. The descriptive
// Table I strings are included too: they do not perturb the simulation,
// but a cache key must cover everything a response could echo.
func appendSpec(b []byte, s *server.Spec) []byte {
	b = appendString(b, s.Name)
	b = appendString(b, s.ProcessorType)
	b = appendInt(b, int64(s.Cores))
	b = appendInt(b, int64(s.Chips))
	b = appendFloat(b, s.FreqMHz)
	b = appendFloat(b, s.GFLOPSPerCore)
	b = appendInt(b, int64(s.MemoryBytes))
	b = appendFloat(b, s.MemBWBytesPerSec)
	b = appendCache(b, s.L1D)
	b = appendCache(b, s.L2)
	b = appendCache(b, s.L3)
	b = appendFloat(b, s.IdleWatts)
	b = appendFloat(b, s.Coef.Active)
	b = appendFloat(b, s.Coef.PerCore)
	b = appendFloat(b, s.Coef.Compute)
	b = appendFloat(b, s.Coef.FPCompute)
	b = appendFloat(b, s.Coef.UncoreBW)
	b = appendFloat(b, s.Coef.MemFoot)
	b = appendFloat(b, s.Coef.CommPerCore)
	b = appendCurve(b, s.HPLFull)
	b = appendCurve(b, s.HPLHalf)
	b = appendCurve(b, s.EP)
	b = appendFloat(b, s.SPECpowerScore)
	b = appendString(b, s.PrimaryCache)
	b = appendString(b, s.SecondaryCache)
	b = appendString(b, s.TertiaryCache)
	b = appendString(b, s.MemoryDetails)
	b = appendString(b, s.PowerSupply)
	return appendString(b, s.Disk)
}
