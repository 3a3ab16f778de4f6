package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/freelist"
)

func tiny() Config {
	return Config{
		Levels: []LevelConfig{
			{Name: "L1", Sets: 2, Ways: 2, LineBytes: 64, HitLatency: 4},
			{Name: "L2", Sets: 4, Ways: 2, LineBytes: 64, HitLatency: 14},
		},
		MemLatency: 100,
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := MustNew(tiny())
	r := h.Access(0x1000)
	if r.HitLevel != 2 {
		t.Errorf("cold access hit level %d, want 2 (memory)", r.HitLevel)
	}
	if want := uint64(4 + 14 + 100); r.Latency != want {
		t.Errorf("cold latency = %d, want %d", r.Latency, want)
	}
	r = h.Access(0x1000)
	if r.HitLevel != 0 || r.Latency != 4 {
		t.Errorf("warm access = %+v, want L1 hit at 4 cycles", r)
	}
}

func TestSameLineDifferentOffsetHits(t *testing.T) {
	h := MustNew(tiny())
	h.Access(0x1000)
	if r := h.Access(0x103f); r.HitLevel != 0 {
		t.Errorf("access within the same 64B line missed: %+v", r)
	}
	if r := h.Access(0x1040); r.HitLevel == 0 {
		t.Errorf("access to next line hit L1 cold: %+v", r)
	}
}

func TestLRUEviction(t *testing.T) {
	// L1: 2 sets × 2 ways, 64B lines. Lines mapping to set 0 are those with
	// even line index: 0x0000, 0x0080, 0x0100, ...
	h := MustNew(tiny())
	h.Access(0x0000) // set 0, way A
	h.Access(0x0080) // set 0, way B
	h.Access(0x0000) // touch A so B is LRU
	h.Access(0x0100) // set 0: evicts B
	if r := h.Access(0x0000); r.HitLevel != 0 {
		t.Errorf("recently used line evicted: %+v", r)
	}
	if r := h.Access(0x0080); r.HitLevel == 0 {
		t.Errorf("LRU line not evicted: %+v", r)
	}
}

func TestL2CatchesL1Eviction(t *testing.T) {
	h := MustNew(tiny())
	h.Access(0x0000)
	h.Access(0x0080)
	h.Access(0x0100) // evicts one of the above from L1 (still in L2)
	got := 0
	for _, a := range []uint64{0x0000, 0x0080} {
		if r := h.Access(a); r.HitLevel == 1 {
			got++
		}
	}
	if got == 0 {
		t.Error("no L1 victim found in L2; inclusive fill broken")
	}
}

func TestFlushColdsEverything(t *testing.T) {
	h := MustNew(tiny())
	h.Access(0x42)
	h.Flush()
	if r := h.Access(0x42); r.HitLevel != 2 {
		t.Errorf("access after flush hit level %d, want memory", r.HitLevel)
	}
}

func TestStats(t *testing.T) {
	h := MustNew(tiny())
	h.Access(0x0)
	h.Access(0x0)
	st := h.Stats()
	if len(st) != 2 {
		t.Fatalf("levels = %d, want 2", len(st))
	}
	if st[0].Accesses != 2 || st[0].Misses != 1 {
		t.Errorf("L1 stats = %+v, want 2 accesses 1 miss", st[0])
	}
	if st[0].Name != "L1" {
		t.Error("level names wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted empty hierarchy")
	}
	bad := tiny()
	bad.MemLatency = 0
	if _, err := New(bad); err == nil {
		t.Error("accepted zero memory latency")
	}
	bad = tiny()
	bad.Levels[0].Sets = 0
	if _, err := New(bad); err == nil {
		t.Error("accepted zero sets")
	}
	bad = tiny()
	bad.Levels[0].LineBytes = 48
	if _, err := New(bad); err == nil {
		t.Error("accepted non-power-of-two line size")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestCapacity(t *testing.T) {
	lc := LevelConfig{Sets: 64, Ways: 8, LineBytes: 64}
	if got := lc.Capacity(); got != 32*1024 {
		t.Errorf("capacity = %d, want 32768", got)
	}
}

func TestDefaultConfigShape(t *testing.T) {
	cfg := DefaultConfig()
	if len(cfg.Levels) != 3 {
		t.Fatalf("default levels = %d, want 3", len(cfg.Levels))
	}
	if cfg.Levels[0].Capacity() != 32*1024 {
		t.Errorf("L1D = %d bytes, want 32 KiB", cfg.Levels[0].Capacity())
	}
	if cfg.Levels[1].Capacity() != 1024*1024 {
		t.Errorf("L2 = %d bytes, want 1 MiB", cfg.Levels[1].Capacity())
	}
	// Latencies must increase outward.
	last := uint64(0)
	for _, l := range cfg.Levels {
		if l.HitLatency <= last {
			t.Errorf("latency not increasing at %s", l.Name)
		}
		last = l.HitLatency
	}
	if cfg.MemLatency <= last {
		t.Error("memory latency not largest")
	}
}

func TestMemPenaltyOnlyHitsMemory(t *testing.T) {
	h := MustNew(tiny())
	h.Access(0x100) // warm the line
	h.SetMemPenalty(500)
	if r := h.Access(0x100); r.Latency != 4 {
		t.Errorf("contended L1 hit = %d cycles, want 4 (hits are private)", r.Latency)
	}
	if r := h.Access(0x4000); r.Latency != 4+14+100+500 {
		t.Errorf("contended miss = %d cycles, want 618", r.Latency)
	}
	h.SetMemPenalty(0)
	if r := h.Access(0x8000); r.Latency != 118 {
		t.Errorf("after reset miss = %d cycles, want 118", r.Latency)
	}
}

// Property: a working set that fits in L1 reaches 100% L1 hits after one
// warming pass, for any access order.
func TestQuickWorkingSetFitsL1(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prop := func(perm []uint8) bool {
		h := MustNew(tiny())                              // L1 = 2 sets * 2 ways = 4 lines
		lines := []uint64{0x0000, 0x0040, 0x0080, 0x00c0} // 2 per set
		for _, a := range lines {
			h.Access(a)
		}
		for _, p := range perm {
			if r := h.Access(lines[int(p)%len(lines)]); r.HitLevel != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: latency is always one of the finitely many legal values and
// consistent with the hit level.
func TestQuickLatencyConsistentWithLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := tiny()
	want := []uint64{4, 18, 118}
	prop := func(addrs []uint16) bool {
		h := MustNew(cfg)
		for _, a := range addrs {
			r := h.Access(uint64(a))
			if r.HitLevel < 0 || r.HitLevel > 2 {
				return false
			}
			if r.Latency != want[r.HitLevel] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestReleasedLinesBehaveFresh: a hierarchy built from a released one's
// lines returns the same latency for every access and the same Stats as a
// freshly allocated one, though the released one was warm; lines go only
// to a level of the same shape; and the released hierarchy panics on use.
func TestReleasedLinesBehaveFresh(t *testing.T) {
	linePool = freelist.List[shape, line]{Keep: linePool.Keep} // the reference below allocates its lines

	rng := rand.New(rand.NewSource(7))
	addrs := make([]uint64, 2000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(64)) * 64 // many times what tiny holds
	}
	run := func(h *Hierarchy) []Result {
		out := make([]Result, len(addrs))
		for i, a := range addrs {
			out[i] = h.Access(a)
		}
		return out
	}
	fresh := MustNew(tiny())
	want, wantStats := run(fresh), fresh.Stats()

	used := MustNew(tiny())
	run(used)
	first := make([]*line, len(used.levels))
	for i, l := range used.levels {
		first[i] = &l.lines[0]
	}
	used.Release()
	used.Release() // harmless

	// Same line count as tiny's L1 (2×2), another shape: it must not take them.
	other := MustNew(Config{Levels: []LevelConfig{{Name: "x", Sets: 1, Ways: 4, LineBytes: 64, HitLatency: 1}}, MemLatency: 9})
	if &other.levels[0].lines[0] == first[0] {
		t.Error("a 1×4 level took a released 2×2 level's lines")
	}
	reused := MustNew(tiny())
	for i, l := range reused.levels {
		if &l.lines[0] != first[i] {
			t.Errorf("level %d allocated new lines, want the released ones", i)
		}
	}
	if got := run(reused); !reflect.DeepEqual(got, want) {
		t.Error("released lines gave another latency sequence than fresh ones")
	}
	if got := reused.Stats(); !reflect.DeepEqual(got, wantStats) {
		t.Errorf("Stats from released lines = %+v, want %+v", got, wantStats)
	}

	defer func() {
		if recover() == nil {
			t.Error("Access on a released hierarchy did not panic")
		}
	}()
	used.Access(0)
}
