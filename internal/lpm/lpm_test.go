package lpm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func ip(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

func sampleRoutes() []Route {
	return []Route{
		{Prefix: 0, Len: 0, NextHop: 9},                 // default route
		{Prefix: ip(10, 0, 0, 0), Len: 8, NextHop: 1},   // shallow
		{Prefix: ip(10, 1, 0, 0), Len: 16, NextHop: 2},  // deeper
		{Prefix: ip(10, 1, 2, 0), Len: 24, NextHop: 3},  // below first level (20 bits)
		{Prefix: ip(10, 1, 2, 42), Len: 32, NextHop: 4}, // host route
		{Prefix: ip(192, 168, 0, 0), Len: 16, NextHop: 5},
	}
}

func TestLookupLongestMatchWins(t *testing.T) {
	routes := sampleRoutes()
	tbl := MustBuild(routes, Config{})
	cases := []struct {
		addr uint32
		want int
	}{
		{ip(10, 9, 9, 9), 1},    // only the /8
		{ip(10, 1, 9, 9), 2},    // the /16 beats the /8
		{ip(10, 1, 2, 7), 3},    // the /24 beats both
		{ip(10, 1, 2, 42), 4},   // the host route wins
		{ip(192, 168, 3, 4), 5}, // the other /16
		{ip(8, 8, 8, 8), 9},     // default route
	}
	for _, c := range cases {
		got, _ := tbl.Lookup(c.addr, nil)
		if got != c.want {
			t.Errorf("Lookup(%08x) = %d, want %d", c.addr, got, c.want)
		}
		if lin := LinearLookup(routes, c.addr); lin != c.want {
			t.Errorf("reference disagrees at %08x: %d vs %d", c.addr, lin, c.want)
		}
	}
}

func TestExtendedFlagTracksDepth(t *testing.T) {
	tbl := MustBuild(sampleRoutes(), Config{})
	if _, ext := tbl.Lookup(ip(10, 9, 9, 9), nil); ext {
		t.Error("shallow route took the second probe")
	}
	if _, ext := tbl.Lookup(ip(10, 1, 2, 42), nil); !ext {
		t.Error("host route skipped the second probe")
	}
	if tbl.Pages() == 0 {
		t.Error("no overflow pages despite deep routes")
	}
	if tbl.Routes() != len(sampleRoutes()) {
		t.Errorf("routes = %d", tbl.Routes())
	}
}

func TestNoRoute(t *testing.T) {
	tbl := MustBuild([]Route{{Prefix: ip(10, 0, 0, 0), Len: 8, NextHop: 1}}, Config{})
	if nh, _ := tbl.Lookup(ip(11, 0, 0, 1), nil); nh != NoRoute {
		t.Errorf("uncovered address returned hop %d", nh)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]Route{{Len: 33}}, Config{}); err == nil {
		t.Error("accepted /33")
	}
	if _, err := Build([]Route{{Len: -1}}, Config{}); err == nil {
		t.Error("accepted negative length")
	}
	if _, err := Build([]Route{{Prefix: 1, Len: 8}}, Config{}); err == nil {
		t.Error("accepted prefix with host bits set")
	}
	if _, err := Build([]Route{{NextHop: -2, Len: 0}}, Config{}); err == nil {
		t.Error("accepted negative next hop")
	}
	if _, err := Build(nil, Config{FirstLevelBits: 4}); err == nil {
		t.Error("accepted absurd first-level width")
	}
}

func TestInsertionOrderIrrelevant(t *testing.T) {
	routes := sampleRoutes()
	rev := make([]Route, len(routes))
	for i, r := range routes {
		rev[len(routes)-1-i] = r
	}
	a := MustBuild(routes, Config{})
	b := MustBuild(rev, Config{})
	for addr := uint32(0); addr < 1<<22; addr += 997 {
		na, _ := a.Lookup(addr, nil)
		nb, _ := b.Lookup(addr, nil)
		if na != nb {
			t.Fatalf("order-dependent result at %08x: %d vs %d", addr, na, nb)
		}
	}
}

// TestQuickLookupMatchesLinear: random route sets vs the linear reference,
// with the metered lookup agreeing with the untimed one on every probe.
func TestQuickLookupMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	meter := NewMeter(sim.MustNew(sim.Config{Cores: 1}).Core(0), DefaultTimingConfig())
	prop := func(seed int64, nRoutes uint8) bool {
		r := rand.New(rand.NewSource(seed))
		routes := make([]Route, 0, int(nRoutes%24)+1)
		for i := 0; i < cap(routes); i++ {
			l := r.Intn(33)
			var p uint32
			if l > 0 {
				p = r.Uint32() >> uint(32-l) << uint(32-l)
			}
			routes = append(routes, Route{Prefix: p, Len: l, NextHop: i})
		}
		tbl, err := Build(routes, Config{FirstLevelBits: 16})
		if err != nil {
			return false
		}
		for k := 0; k < 60; k++ {
			var addr uint32
			if k%2 == 0 && len(routes) > 0 {
				// Probe near route boundaries where bugs live.
				rt := routes[r.Intn(len(routes))]
				addr = rt.Prefix | (r.Uint32() & (1<<uint(32-rt.Len) - 1) & 0xffffffff)
				if rt.Len == 0 {
					addr = r.Uint32()
				}
			} else {
				addr = r.Uint32()
			}
			got, ext := tbl.Lookup(addr, nil)
			if mGot, mExt := tbl.Lookup(addr, meter); mGot != got || mExt != ext {
				return false
			}
			want := LinearLookup(routes, addr)
			if got != want {
				// Equal-length overlapping prefixes may map to different
				// hops; LinearLookup keeps the first longest, Build keeps
				// the last inserted. Only fail when the depths differ.
				gd, wd := depthOf(routes, got), depthOf(routes, want)
				if gd != wd {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func depthOf(routes []Route, hop int) int {
	for _, r := range routes {
		if r.NextHop == hop {
			return r.Len
		}
	}
	return -1
}

func TestLookupTimedChargesPerProbe(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	c := m.Core(0)
	tbl := MustBuild(sampleRoutes(), Config{})
	meter := NewMeter(c, DefaultTimingConfig())

	// Warm both paths, then compare steady-state costs.
	for i := 0; i < 4; i++ {
		tbl.Lookup(ip(10, 9, 9, 9), meter)
		tbl.Lookup(ip(10, 1, 2, 42), meter)
	}
	t0 := c.Now()
	nh, ext := tbl.Lookup(ip(10, 9, 9, 9), meter)
	shallow := c.Now() - t0
	if nh != 1 || ext {
		t.Fatalf("shallow lookup = (%d,%v)", nh, ext)
	}
	t0 = c.Now()
	nh, ext = tbl.Lookup(ip(10, 1, 2, 42), meter)
	deep := c.Now() - t0
	if nh != 4 || !ext {
		t.Fatalf("deep lookup = (%d,%v)", nh, ext)
	}
	if deep <= shallow {
		t.Errorf("deep lookup (%d cy) not slower than shallow (%d cy)", deep, shallow)
	}
	// Functional result identical to the untimed path.
	un, unExt := tbl.Lookup(ip(10, 1, 2, 42), nil)
	if un != nh || unExt != ext {
		t.Error("timed and untimed lookups disagree")
	}
}

func TestDefaultFirstLevelWidth(t *testing.T) {
	tbl := MustBuild([]Route{{Len: 0, NextHop: 1}}, Config{})
	if len(tbl.tbl) != 1<<FirstLevelBits {
		t.Errorf("first level = %d entries", len(tbl.tbl))
	}
}
