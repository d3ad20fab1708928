// Package cache implements a set-associative, LRU-replacement cache
// simulator with multi-level hierarchies configured from the cache geometry
// of Table I in the paper. The PMU substrate uses it to turn synthetic
// memory-access streams — generated from each workload's locality profile —
// into L2/L3 hit counts and DRAM read/write counts, i.e. four of the six
// predictor variables of the paper's power regression model.
package cache

import (
	"fmt"
)

// Config describes one cache level.
type Config struct {
	Name      string // e.g. "L2"
	SizeBytes int
	LineBytes int
	Ways      int // associativity; Ways == number of lines per set
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int {
	lines := c.SizeBytes / c.LineBytes
	if c.Ways <= 0 || lines <= 0 || lines%c.Ways != 0 {
		return 0
	}
	return lines / c.Ways
}

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: %s has non-positive geometry", c.Name)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: %s size %d not a multiple of line %d", c.Name, c.SizeBytes, c.LineBytes)
	}
	if c.Sets() == 0 {
		return fmt.Errorf("cache: %s lines not divisible into %d ways", c.Name, c.Ways)
	}
	return nil
}

// Stats counts the outcomes observed at one level.
type Stats struct {
	Hits     int64
	Misses   int64
	Accesses int64
}

// HitRate returns Hits/Accesses, or 0 when no accesses occurred.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// level is one cache level's state.
type level struct {
	cfg    Config
	sets   uint64
	lineSz uint64
	pow2   bool // set count is a power of two: index by mask, else modulo
	// tags[set] is an LRU-ordered slice (front = most recent) of line tags.
	tags  [][]uint64
	stats Stats
}

func newLevel(cfg Config) (*level, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	l := &level{
		cfg:    cfg,
		sets:   uint64(sets),
		lineSz: uint64(cfg.LineBytes),
		pow2:   sets&(sets-1) == 0,
		tags:   make([][]uint64, sets),
	}
	for i := range l.tags {
		l.tags[i] = make([]uint64, 0, cfg.Ways)
	}
	return l, nil
}

// access returns true on hit and updates LRU state; on miss the line is
// installed (inclusive fill), evicting the least recently used way.
func (l *level) access(addr uint64) bool {
	line := addr / l.lineSz
	var set uint64
	if l.pow2 {
		set = line & (l.sets - 1)
	} else {
		set = line % l.sets
	}
	tag := line // full line id as tag; embedded set index is harmless
	ways := l.tags[set]
	for i, t := range ways {
		if t == tag {
			// Move to front.
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			l.stats.Hits++
			l.stats.Accesses++
			return true
		}
	}
	l.stats.Misses++
	l.stats.Accesses++
	if len(ways) < l.cfg.Ways {
		ways = append(ways, 0)
	}
	copy(ways[1:], ways)
	ways[0] = tag
	l.tags[set] = ways
	return false
}

// Hierarchy is an inclusive multi-level cache in front of DRAM.
type Hierarchy struct {
	levels []*level

	// MemReads and MemWrites count accesses that missed every level.
	MemReads  int64
	MemWrites int64
	// TotalAccesses counts every access issued to the hierarchy.
	TotalAccesses int64
}

// NewHierarchy builds a hierarchy from innermost (L1) to outermost level.
func NewHierarchy(cfgs ...Config) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one level")
	}
	h := &Hierarchy{}
	for _, c := range cfgs {
		l, err := newLevel(c)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, l)
	}
	return h, nil
}

// Access simulates one access. It returns the 1-based level that hit, or 0
// when the access went to memory. Outer levels are consulted only when the
// inner ones miss, so each level's hit rate is conditional on reaching it
// and the rates compose multiplicatively — which is how the PMU scales
// them. write only affects the DRAM write counter; the model is
// write-allocate, so lookup behaviour is identical.
func (h *Hierarchy) Access(addr uint64, write bool) int {
	h.TotalAccesses++
	hitLevel := 0
	for i, l := range h.levels {
		if l.access(addr) {
			hitLevel = i + 1
			break
		}
	}
	if hitLevel == 0 {
		if write {
			h.MemWrites++
		} else {
			h.MemReads++
		}
	}
	return hitLevel
}

// LevelStats returns the stats of the 1-based level i.
func (h *Hierarchy) LevelStats(i int) Stats {
	return h.levels[i-1].stats
}

// Levels returns the number of levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// ResetStats clears the counters but keeps cache contents, so steady-state
// behaviour can be measured after a warm-up pass.
func (h *Hierarchy) ResetStats() {
	for _, l := range h.levels {
		l.stats = Stats{}
	}
	h.MemReads, h.MemWrites, h.TotalAccesses = 0, 0, 0
}
