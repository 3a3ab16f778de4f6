package lpm

import (
	"testing"

	"repro/internal/sim"
)

type lpm6RNG struct{ state uint64 }

func (s *lpm6RNG) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func v6(s string) [16]byte { return MustAddr6(s) }

func mustBuild6(t *testing.T, routes []Route6) *Table6 {
	t.Helper()
	tb, err := Build6(routes)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// testTiming6 is a v6 timing model shaped like rte_lpm6: a small fixed
// setup plus one dependent load per consumed stride.
var testTiming6 = TimingConfig6{BaseUops: 20, LevelUops: 14, NodeBase: 0xc000_0000, NodeStride: 4096}

func TestTable6LongestMatch(t *testing.T) {
	routes := []Route6{
		{Prefix: v6("::"), Len: 0, NextHop: 1},
		{Prefix: v6("2001:db8::"), Len: 32, NextHop: 2},
		{Prefix: v6("2001:db8:1::"), Len: 48, NextHop: 3},
		{Prefix: v6("2001:db8:1:2::"), Len: 64, NextHop: 4},
		{Prefix: v6("2001:db8:1:2::42"), Len: 128, NextHop: 5},
	}
	tb := mustBuild6(t, routes)
	cases := []struct {
		addr      string
		hop       int
		minLevels int
	}{
		{"fe80::1", 1, 1},               // default route only
		{"2001:db8:ffff::1", 2, 1},      // /32
		{"2001:db8:1:ffff::1", 3, 1},    // /48
		{"2001:db8:1:2::41", 4, 1},      // /64
		{"2001:db8:1:2::42", 5, 16},     // /128 host route: full walk
		{"2001:db8:1:2:8000::42", 4, 1}, // differs above /64's span? no — inside /64, not the host
	}
	for _, c := range cases {
		hop, levels := tb.Lookup(v6(c.addr), nil)
		if hop != c.hop {
			t.Errorf("Lookup(%s) = hop %d, want %d", c.addr, hop, c.hop)
		}
		if levels < c.minLevels {
			t.Errorf("Lookup(%s) walked %d levels, want >= %d", c.addr, levels, c.minLevels)
		}
		if lin := LinearLookup6(routes, v6(c.addr)); lin != c.hop {
			t.Errorf("LinearLookup6(%s) = %d, want %d", c.addr, lin, c.hop)
		}
	}
}

// TestTable6EdgePrefixes pins the /0 and /128 boundary behaviour, and that
// a /0-only table answers in one level.
func TestTable6EdgePrefixes(t *testing.T) {
	empty := mustBuild6(t, nil)
	if hop, _ := empty.Lookup(v6("2001:db8::1"), nil); hop != NoRoute {
		t.Errorf("empty table returned hop %d", hop)
	}

	def := mustBuild6(t, []Route6{{Len: 0, NextHop: 7}})
	hop, levels := def.Lookup(v6("ff02::1"), nil)
	if hop != 7 || levels != 1 {
		t.Errorf("default-only: hop %d levels %d, want 7, 1", hop, levels)
	}

	host := v6("2001:db8::1234:5678")
	tb := mustBuild6(t, []Route6{{Prefix: host, Len: 128, NextHop: 9}})
	if hop, levels := tb.Lookup(host, nil); hop != 9 || levels != 16 {
		t.Errorf("/128 exact: hop %d levels %d, want 9, 16", hop, levels)
	}
	// One bit off the host route: no match.
	near := host
	near[15] ^= 1
	if hop, _ := tb.Lookup(near, nil); hop != NoRoute {
		t.Errorf("/128 near-miss returned hop %d", hop)
	}
	if tb.nodes != 16 {
		t.Errorf("single /128 allocated %d nodes, want 16", tb.nodes)
	}
}

// TestTable6EqualLengthTies: overlapping equal-length prefixes keep the
// last inserted (route replacement), in both the trie and the reference.
func TestTable6EqualLengthTies(t *testing.T) {
	routes := []Route6{
		{Prefix: v6("2001:db8::"), Len: 32, NextHop: 1},
		{Prefix: v6("2001:db8::"), Len: 32, NextHop: 2}, // replaces
	}
	tb := mustBuild6(t, routes)
	addr := v6("2001:db8::99")
	if hop, _ := tb.Lookup(addr, nil); hop != 2 {
		t.Errorf("trie tie: hop %d, want 2 (last wins)", hop)
	}
	if hop := LinearLookup6(routes, addr); hop != 2 {
		t.Errorf("linear tie: hop %d, want 2 (last wins)", hop)
	}
}

func TestRoute6Validate(t *testing.T) {
	bad := []Route6{
		{Len: -1, NextHop: 0},
		{Len: 129, NextHop: 0},
		{Len: 0, NextHop: -2},
		{Prefix: v6("2001:db8::1"), Len: 32, NextHop: 0}, // bits below len
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad route %d validated", i)
		}
		if _, err := Build6([]Route6{r}); err == nil {
			t.Errorf("bad route %d built", i)
		}
	}
	good := Route6{Prefix: v6("2001:db8::"), Len: 32, NextHop: 0}
	if err := good.Validate(); err != nil {
		t.Errorf("good route rejected: %v", err)
	}
}

// TestTable6QuickDifferential cross-checks the trie against the linear
// reference on random route sets and addresses clustered to hit them.
func TestTable6QuickDifferential(t *testing.T) {
	rng := lpm6RNG{state: 0x6c706d36} // "lpm6"
	for trial := 0; trial < 30; trial++ {
		nRoutes := 1 + int(rng.next()%40)
		routes := make([]Route6, 0, nRoutes)
		for len(routes) < nRoutes {
			var p [16]byte
			// Cluster prefixes in a narrow space so overlaps are common.
			p[0], p[1] = 0x20, 0x01
			p[2] = byte(rng.next() % 4)
			p[3] = byte(rng.next() % 4)
			for i := 4; i < 16; i++ {
				p[i] = byte(rng.next() % 8)
			}
			ln := int(rng.next() % 129)
			// Zero bits below the prefix length.
			for i := 0; i < 16; i++ {
				bits := ln - 8*i
				switch {
				case bits >= 8:
				case bits <= 0:
					p[i] = 0
				default:
					p[i] &= 0xff << (8 - bits)
				}
			}
			routes = append(routes, Route6{Prefix: p, Len: ln, NextHop: int(rng.next() % 100)})
		}
		tb, err := Build6(routes)
		if err != nil {
			t.Fatal(err)
		}
		meter := NewMeter6(sim.MustNew(sim.Config{Cores: 1}).Core(0), testTiming6)
		for q := 0; q < 400; q++ {
			var a [16]byte
			base := routes[rng.next()%uint64(len(routes))]
			a = base.Prefix
			// Mutate a few low bytes so some queries fall off the prefix.
			for m := 0; m < 3; m++ {
				a[8+rng.next()%8] = byte(rng.next() % 8)
			}
			got, levels := tb.Lookup(a, nil)
			want := LinearLookup6(routes, a)
			if got != want {
				t.Fatalf("trial %d: Lookup(%v) = %d, linear %d (routes %v)", trial, a, got, want, routes)
			}
			if mGot, mLevels := tb.Lookup(a, meter); mGot != got || mLevels != levels {
				t.Fatalf("trial %d: metered Lookup(%v) = (%d, %d), untimed (%d, %d)", trial, a, mGot, mLevels, got, levels)
			}
		}
	}
}

// TestLookupTimed6ChargesDepth: a /128-covered destination must cost more
// cycles than a /32-covered one — the organic per-packet fluctuation the
// dataplane's depth-skew scenario rides on.
func TestLookupTimed6ChargesDepth(t *testing.T) {
	tb := mustBuild6(t, []Route6{
		{Prefix: v6("2001:db8::"), Len: 32, NextHop: 1},
		{Prefix: v6("2001:db8::42"), Len: 128, NextHop: 2},
	})
	mach := sim.MustNew(sim.Config{Cores: 1})
	c := mach.Core(0)
	meter := NewMeter6(c, testTiming6)

	measure := func(addr [16]byte) (uint64, int) {
		start := c.Now()
		_, levels := tb.Lookup(addr, meter)
		return c.Now() - start, levels
	}
	// The shallow destination diverges from the /128 chain at byte 4, so
	// its walk ends after 5 levels; the host route walks all 16. Warm both
	// paths once so the comparison is about depth, not cold caches.
	measure(v6("2001:db8:ffff::1"))
	measure(v6("2001:db8::42"))
	shallowCy, shallowLv := measure(v6("2001:db8:ffff::1"))
	deepCy, deepLv := measure(v6("2001:db8::42"))
	if shallowLv >= deepLv {
		t.Fatalf("levels: shallow %d, deep %d", shallowLv, deepLv)
	}
	if deepCy <= shallowCy {
		t.Errorf("cycles: deep %d <= shallow %d", deepCy, shallowCy)
	}
}
