package cache

import (
	"math/rand"
	"testing"
)

// setStride returns an address stride that maps consecutive lines onto
// the same set at every level of cfg (the LCM of the set counts, which
// for power-of-two organizations is the maximum).
func setStride(cfg Config) uint64 {
	maxSets := 0
	for _, l := range cfg.Levels {
		if l.Sets > maxSets {
			maxSets = l.Sets
		}
	}
	return uint64(maxSets) * cfg.Levels[0].LineBytes
}

// TestAdversarialSameSetThrash: cycling over ways+1 distinct lines that
// all map to one set defeats LRU completely — by the time a line comes
// around again it has been evicted, so after the cold pass every access
// at a level with fewer ways misses. This is the worst-case key sequence
// a hash-indexed table can hand the hierarchy, and the mechanism behind
// the dataplane's trie-walk cache sensitivity.
func TestAdversarialSameSetThrash(t *testing.T) {
	cfg := DefaultConfig()
	maxWays := 0
	for _, l := range cfg.Levels {
		if l.Ways > maxWays {
			maxWays = l.Ways
		}
	}
	h := MustNew(cfg)
	stride := setStride(cfg)
	lines := maxWays + 1 // one more than the widest level can hold

	// Cold pass installs everything once.
	for i := 0; i < lines; i++ {
		h.Access(uint64(i) * stride)
	}
	// Every subsequent cyclic access must go all the way to memory.
	const rounds = 5
	memory := len(h.Stats())
	for r := 0; r < rounds; r++ {
		for i := 0; i < lines; i++ {
			res := h.Access(uint64(i) * stride)
			if res.HitLevel != memory {
				t.Fatalf("round %d line %d hit level %d, want memory (%d): LRU should thrash",
					r, i, res.HitLevel, memory)
			}
		}
	}
	for _, s := range h.Stats() {
		if ratio := float64(s.Misses) / float64(s.Accesses); ratio < float64(rounds)/float64(rounds+1) {
			t.Errorf("level %s miss ratio %.2f under thrash, want near 1", s.Name, ratio)
		}
	}
}

// TestAdversarialVsFriendlyStride: the same number of accesses over the
// same footprint, distinguished only by set mapping — spread across sets
// it fits and hits; concentrated on one set it thrashes. Table-driven
// over patterns so the eviction policy's sensitivity to key sequence is
// pinned, not just its hit/miss bookkeeping.
func TestAdversarialVsFriendlyStride(t *testing.T) {
	cases := []struct {
		name       string
		stride     uint64 // address stride between the cycled lines
		lines      int
		wantL1Hits bool // does the steady-state cycle hit in L1?
	}{
		// 9 lines in distinct sets of an 8-way L1: trivially resident.
		{"distinct sets, fits", 64, 9, true},
		// 8 lines in one set of an 8-way L1: exactly fills the set.
		{"same set, exactly ways", 64 * 64, 8, true},
		// 9 lines in one set of an 8-way L1: one too many, full thrash.
		{"same set, ways+1", 64 * 64, 9, false},
	}
	for _, tc := range cases {
		// Single-level hierarchy isolates the policy under test.
		h := MustNew(Config{
			Levels:     []LevelConfig{{Name: "L1", Sets: 64, Ways: 8, LineBytes: 64, HitLatency: 4}},
			MemLatency: 100,
		})
		for i := 0; i < tc.lines; i++ {
			h.Access(uint64(i) * tc.stride)
		}
		hits := 0
		for i := 0; i < tc.lines; i++ {
			if h.Access(uint64(i)*tc.stride).HitLevel == 0 {
				hits++
			}
		}
		if tc.wantL1Hits && hits != tc.lines {
			t.Errorf("%s: %d/%d steady-state hits, want all", tc.name, hits, tc.lines)
		}
		if !tc.wantL1Hits && hits != 0 {
			t.Errorf("%s: %d/%d steady-state hits, want none", tc.name, hits, tc.lines)
		}
	}
}

// TestVictimSelectionPrefersInvalid: after a flush, a set must fill its
// invalid ways before evicting a freshly installed line — a resident line
// must not be sacrificed while empty ways remain.
func TestVictimSelectionPrefersInvalid(t *testing.T) {
	h := MustNew(Config{
		Levels:     []LevelConfig{{Name: "L1", Sets: 1, Ways: 4, LineBytes: 64, HitLatency: 4}},
		MemLatency: 100,
	})
	// Install A, then three more distinct lines: with 4 ways, nothing may
	// evict A while invalid ways remain.
	h.Access(0)
	for i := 1; i < 4; i++ {
		h.Access(uint64(i) * 64)
	}
	if res := h.Access(0); res.HitLevel != 0 {
		t.Fatalf("line A evicted while invalid ways remained (hit level %d)", res.HitLevel)
	}
	// A is now the most recently used; installing a 5th line must evict
	// the least recently used line (line 1), not A.
	h.Access(4 * 64)
	if res := h.Access(0); res.HitLevel != 0 {
		t.Errorf("LRU evicted the most recently used line A")
	}
	if res := h.Access(1 * 64); res.HitLevel != 1 {
		t.Errorf("line 1 survived eviction (hit level %d), want it chosen as LRU victim", res.HitLevel)
	}
}

// refLine and refLevel are the cache level as first written, a valid flag
// beside each line, kept as the oracle for the packed lines' victim choice.
type refLine struct {
	tag   uint64
	valid bool
	used  uint64
}

type refLevel struct {
	sets  [][]refLine
	nsets uint64
	tick  uint64
}

func (l *refLevel) access(lineAddr uint64) bool {
	l.tick++
	set := l.sets[lineAddr%l.nsets]
	tag := lineAddr / l.nsets
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
	set[victim] = refLine{tag: tag, valid: true, used: l.tick}
	return false
}

// TestVictimMatchesValidFlagModel: over random accesses with flushes in
// between, a level agrees with the valid-flag model on every hit and miss
// and holds every line in the same way.
func TestVictimMatchesValidFlagModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range [][2]int{{1, 4}, {2, 2}, {4, 3}, {8, 11}} {
		cfg := LevelConfig{Name: "L", Sets: shape[0], Ways: shape[1], LineBytes: 64, HitLatency: 1}
		l, err := newLevel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := &refLevel{sets: make([][]refLine, cfg.Sets), nsets: uint64(cfg.Sets)}
		for i := range ref.sets {
			ref.sets[i] = make([]refLine, cfg.Ways)
		}
		span := uint64(cfg.Sets * cfg.Ways * 3)
		for n := 0; n < 20000; n++ {
			if rng.Intn(500) == 0 {
				l.flush()
				for _, set := range ref.sets {
					clear(set)
				}
			}
			line := uint64(rng.Int63n(int64(span)))
			if got, want := l.access(line*64), ref.access(line); got != want {
				t.Fatalf("%v: access %d (line %d): hit %v, model %v", shape, n, line, got, want)
			}
		}
		for s, set := range ref.sets {
			for w, rl := range set {
				got := l.lines[s*cfg.Ways+w]
				if (got.used != 0) != rl.valid || rl.valid && (got.tag != rl.tag || got.used != rl.used) {
					t.Fatalf("%v: set %d way %d holds %+v, model %+v", shape, s, w, got, rl)
				}
			}
		}
	}
}
