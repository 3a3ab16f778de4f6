// Package cache implements a set-associative, LRU cache hierarchy with a
// simple latency cost model. Cache warmth is the canonical non-functional
// state behind the paper's performance fluctuations ("the first one can take
// significantly longer time than the second one because the target table may
// not be cached on memory"), and cache-miss counts feed the PEBS event
// extension of §V-D.
package cache

import "fmt"

// LevelConfig describes one cache level.
type LevelConfig struct {
	// Name is a human-readable label ("L1D", "L2", "LLC").
	Name string
	// Sets and Ways give the organization; capacity = Sets*Ways*LineBytes.
	Sets, Ways int
	// LineBytes is the cache-line size.
	LineBytes uint64
	// HitLatency is the access latency (cycles) when this level hits.
	HitLatency uint64
}

// Capacity returns the level's size in bytes.
func (lc LevelConfig) Capacity() uint64 {
	return uint64(lc.Sets) * uint64(lc.Ways) * lc.LineBytes
}

// Config describes a whole hierarchy, innermost level first.
type Config struct {
	Levels []LevelConfig
	// MemLatency is the cycles paid when every level misses.
	MemLatency uint64
}

// DefaultConfig returns a Skylake-server-like three-level hierarchy at the
// simulator's 2.0 GHz clock: 32 KiB 8-way L1D (4 cy), 1 MiB 16-way L2
// (14 cy), 2.75 MiB-per-core-slice-like 11-way LLC (44 cy), 240-cycle
// (120 ns) memory.
func DefaultConfig() Config {
	return Config{
		Levels: []LevelConfig{
			{Name: "L1D", Sets: 64, Ways: 8, LineBytes: 64, HitLatency: 4},
			{Name: "L2", Sets: 1024, Ways: 16, LineBytes: 64, HitLatency: 14},
			{Name: "LLC", Sets: 4096, Ways: 11, LineBytes: 64, HitLatency: 44},
		},
		MemLatency: 240,
	}
}

// Result reports the outcome of one access. HitLevel is the index of the
// level that hit, or len(levels) when the access went to memory; level i
// missed for every i < HitLevel.
type Result struct {
	HitLevel int
	Latency  uint64
}

// LevelStats accumulates per-level counters.
type LevelStats struct {
	Name     string
	Accesses uint64
	Misses   uint64
}

type line struct {
	tag   uint64
	valid bool
	used  uint64 // LRU timestamp
}

type level struct {
	cfg   LevelConfig
	sets  [][]line
	tick  uint64
	stats LevelStats
}

func newLevel(cfg LevelConfig) (*level, error) {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: level %q needs positive sets/ways", cfg.Name)
	}
	if cfg.LineBytes == 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: level %q line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	sets := make([][]line, cfg.Sets)
	backing := make([]line, cfg.Sets*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &level{cfg: cfg, sets: sets, stats: LevelStats{Name: cfg.Name}}, nil
}

// access returns true on hit, installing the line (write-allocate,
// LRU-evict) on miss.
func (l *level) access(addr uint64) bool {
	l.tick++
	l.stats.Accesses++
	lineAddr := addr / l.cfg.LineBytes
	set := l.sets[lineAddr%uint64(l.cfg.Sets)]
	tag := lineAddr / uint64(l.cfg.Sets)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = l.tick
			return true
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].used < set[victim].used {
			victim = i
		}
	}
	l.stats.Misses++
	set[victim] = line{tag: tag, valid: true, used: l.tick}
	return false
}

func (l *level) flush() {
	for _, set := range l.sets {
		for i := range set {
			set[i] = line{}
		}
	}
}

// Hierarchy is one core's cache stack. It is not safe for concurrent use;
// the simulator gives each core a private hierarchy (see DESIGN.md for why
// this substitution preserves the behaviours under study).
type Hierarchy struct {
	levels []*level
	mem    uint64
	// memPenalty is added to every memory access, modeling shared-resource
	// contention from co-located workloads (memory-bandwidth pressure,
	// the Dobrescu et al. [2] fluctuation source). 0 = no contention.
	memPenalty uint64
}

// New builds a hierarchy from cfg.
func New(cfg Config) (*Hierarchy, error) {
	if len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one level")
	}
	if cfg.MemLatency == 0 {
		return nil, fmt.Errorf("cache: memory latency must be positive")
	}
	h := &Hierarchy{mem: cfg.MemLatency}
	for _, lc := range cfg.Levels {
		l, err := newLevel(lc)
		if err != nil {
			return nil, err
		}
		h.levels = append(h.levels, l)
	}
	return h, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Access performs one load or store at addr. Lookup proceeds outward until a
// level hits (or memory), the line is installed in every level that missed,
// and the latency is the sum of the lookup latencies paid along the way.
func (h *Hierarchy) Access(addr uint64) Result {
	var latency uint64
	for i, l := range h.levels {
		latency += l.cfg.HitLatency
		if l.access(addr) {
			return Result{HitLevel: i, Latency: latency}
		}
	}
	latency += h.mem + h.memPenalty
	return Result{HitLevel: len(h.levels), Latency: latency}
}

// SetMemPenalty sets the extra per-memory-access latency modeling shared
// memory-system contention; 0 restores the uncontended baseline. The
// penalty applies only to accesses that reach memory — cache hits are
// private to the core and unaffected, which is what makes contention a
// per-data-item fluctuation rather than a uniform slowdown.
func (h *Hierarchy) SetMemPenalty(cycles uint64) { h.memPenalty = cycles }

// Flush invalidates every line in every level, restoring a perfectly cold
// hierarchy (used to reset non-functional state between controlled runs).
func (h *Hierarchy) Flush() {
	for _, l := range h.levels {
		l.flush()
	}
}

// Stats returns per-level counters, innermost first.
func (h *Hierarchy) Stats() []LevelStats {
	out := make([]LevelStats, len(h.levels))
	for i, l := range h.levels {
		out[i] = l.stats
	}
	return out
}

// Levels returns the number of levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }
