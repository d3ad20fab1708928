package cache

import (
	"testing"
	"testing/quick"

	"powerbench/internal/rng"
)

func smallCfg(name string, size, line, ways int) Config {
	return Config{Name: name, SizeBytes: size, LineBytes: line, Ways: ways}
}

func TestConfigValidate(t *testing.T) {
	good := smallCfg("L1", 32*1024, 64, 8)
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// Non-power-of-two set counts are legal (the Xeon-4870's 30 MB 24-way
	// L3 has 20480 sets); indexing falls back to modulo.
	odd := smallCfg("L3", 30*1024*1024, 64, 24)
	if err := odd.Validate(); err != nil {
		t.Errorf("24-way 30MB L3 rejected: %v", err)
	}
	bad := []Config{
		smallCfg("a", 0, 64, 8),
		smallCfg("b", 1000, 64, 8),    // size not multiple of line
		smallCfg("c", 32*1024, 64, 7), // lines not divisible by ways
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
}

func TestSets(t *testing.T) {
	c := smallCfg("L1", 32*1024, 64, 8)
	if got := c.Sets(); got != 64 {
		t.Errorf("Sets = %d, want 64", got)
	}
}

func TestHitAfterFill(t *testing.T) {
	h, err := NewHierarchy(smallCfg("L1", 1024, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	if lvl := h.Access(0, false); lvl != 0 {
		t.Errorf("first access should miss to memory, got level %d", lvl)
	}
	if lvl := h.Access(0, false); lvl != 1 {
		t.Errorf("second access should hit L1, got %d", lvl)
	}
	if lvl := h.Access(63, false); lvl != 1 {
		t.Errorf("same-line access should hit, got %d", lvl)
	}
	if lvl := h.Access(64, false); lvl != 0 {
		t.Errorf("next-line access should miss, got %d", lvl)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 64B lines, 2 sets (256B total). Lines mapping to set 0:
	// addresses 0, 128, 256, ... Access 0, 128 (fills both ways), then 256
	// evicts 0 (LRU), so 0 must miss afterwards while 128 was refreshed by
	// nothing — order: after inserting 256, LRU order is [256,128].
	h, err := NewHierarchy(smallCfg("L1", 256, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, false)
	h.Access(128, false)
	h.Access(256, false) // evicts line 0
	if lvl := h.Access(128, false); lvl != 1 {
		t.Errorf("128 should still hit, got %d", lvl)
	}
	if lvl := h.Access(0, false); lvl != 0 {
		t.Errorf("0 should have been evicted, got level %d", lvl)
	}
}

func TestLRUTouchRefreshes(t *testing.T) {
	h, err := NewHierarchy(smallCfg("L1", 256, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, false)
	h.Access(128, false)
	h.Access(0, false)   // refresh 0 → LRU victim is now 128
	h.Access(256, false) // evicts 128
	if lvl := h.Access(0, false); lvl != 1 {
		t.Errorf("refreshed line 0 should hit, got %d", lvl)
	}
	if lvl := h.Access(128, false); lvl != 0 {
		t.Errorf("128 should have been evicted, got %d", lvl)
	}
}

func TestMultiLevel(t *testing.T) {
	h, err := NewHierarchy(
		smallCfg("L1", 256, 64, 2),
		smallCfg("L2", 4096, 64, 4),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Touch enough distinct lines to overflow L1 (4 lines) but not L2.
	for a := uint64(0); a < 16*64; a += 64 {
		h.Access(a, false)
	}
	// Re-touch the first line: gone from L1, still in L2.
	if lvl := h.Access(0, false); lvl != 2 {
		t.Errorf("expected L2 hit, got level %d", lvl)
	}
}

func TestMemReadWriteCounters(t *testing.T) {
	h, err := NewHierarchy(smallCfg("L1", 256, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, false)
	h.Access(1024, true)
	h.Access(2048, true)
	if h.MemReads != 1 || h.MemWrites != 2 {
		t.Errorf("mem counters = %d reads, %d writes", h.MemReads, h.MemWrites)
	}
	if h.TotalAccesses != 3 {
		t.Errorf("total = %d", h.TotalAccesses)
	}
}

func TestNewHierarchyErrors(t *testing.T) {
	if _, err := NewHierarchy(); err == nil {
		t.Error("empty hierarchy should error")
	}
	if _, err := NewHierarchy(smallCfg("bad", 0, 64, 2)); err == nil {
		t.Error("invalid level should error")
	}
}

func TestStatsHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
	s = Stats{Hits: 3, Misses: 1, Accesses: 4}
	if s.HitRate() != 0.75 {
		t.Errorf("hit rate = %v", s.HitRate())
	}
}

func TestSequentialPatternHighHitRate(t *testing.T) {
	p := Pattern{WorkingSetBytes: 1 << 20, SequentialFrac: 1.0, StrideBytes: 8}
	res, err := Profile(p, 50000, rng.DefaultSeed, smallCfg("L1", 32*1024, 64, 8))
	if err != nil {
		t.Fatal(err)
	}
	// Sequential 8B strides over 64B lines: 7/8 of accesses hit the line.
	if res.L1HitRate < 0.8 {
		t.Errorf("sequential L1 hit rate = %v, want > 0.8", res.L1HitRate)
	}
}

func TestRandomPatternLowHitRate(t *testing.T) {
	seqP := Pattern{WorkingSetBytes: 1 << 24, SequentialFrac: 1.0, StrideBytes: 8}
	rndP := Pattern{WorkingSetBytes: 1 << 24, SequentialFrac: 0.0}
	cfg := smallCfg("L1", 32*1024, 64, 8)
	seq, err := Profile(seqP, 30000, rng.DefaultSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Profile(rndP, 30000, rng.DefaultSeed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.L1HitRate >= seq.L1HitRate {
		t.Errorf("random hit rate %v should be below sequential %v", rnd.L1HitRate, seq.L1HitRate)
	}
	if rnd.MemPerAcc <= seq.MemPerAcc {
		t.Errorf("random mem/acc %v should exceed sequential %v", rnd.MemPerAcc, seq.MemPerAcc)
	}
}

func TestSmallWorkingSetFitsInCache(t *testing.T) {
	p := Pattern{WorkingSetBytes: 8 * 1024, SequentialFrac: 0.0}
	res, err := Profile(p, 100000, rng.DefaultSeed, smallCfg("L1", 32*1024, 64, 8))
	if err != nil {
		t.Fatal(err)
	}
	// After warm-up the whole set is resident.
	if res.L1HitRate < 0.95 {
		t.Errorf("resident working set hit rate = %v", res.L1HitRate)
	}
}

func TestWriteShare(t *testing.T) {
	p := Pattern{WorkingSetBytes: 1 << 16, SequentialFrac: 0.5, WriteFrac: 0.3}
	res, err := Profile(p, 50000, rng.DefaultSeed, smallCfg("L1", 1024, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.WriteShare < 0.25 || res.WriteShare > 0.35 {
		t.Errorf("write share = %v, want ≈0.3", res.WriteShare)
	}
}

// Property: hits + misses == accesses at every level, for arbitrary streams.
func TestPropertyCountsConsistent(t *testing.T) {
	f := func(addrs []uint16) bool {
		h, err := NewHierarchy(
			smallCfg("L1", 512, 64, 2),
			smallCfg("L2", 2048, 64, 4),
		)
		if err != nil {
			return false
		}
		for _, a := range addrs {
			h.Access(uint64(a), a%3 == 0)
		}
		for lvl := 1; lvl <= 2; lvl++ {
			s := h.LevelStats(lvl)
			if s.Hits+s.Misses != s.Accesses {
				return false
			}
		}
		return h.TotalAccesses == int64(len(addrs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: repeating the same address twice in a row always hits L1 the
// second time.
func TestPropertyImmediateReuseHits(t *testing.T) {
	f := func(addr uint32) bool {
		h, err := NewHierarchy(smallCfg("L1", 512, 64, 2))
		if err != nil {
			return false
		}
		h.Access(uint64(addr), false)
		return h.Access(uint64(addr), false) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h, err := NewHierarchy(
		smallCfg("L1", 32*1024, 64, 8),
		smallCfg("L2", 256*1024, 64, 8),
		smallCfg("L3", 4*1024*1024, 64, 16),
	)
	if err != nil {
		b.Fatal(err)
	}
	s := rng.NewStream(rng.DefaultSeed, rng.A)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(s.Uint64n(1<<22), false)
	}
}
