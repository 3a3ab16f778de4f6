package lpm

import (
	"testing"

	"repro/internal/sim"
)

// edgeRoutes is a route set built entirely out of boundary cases: the /0
// default, a /1 splitting the space, host routes at the very bottom and
// very top of the address space (both land in extended pages seeded from
// the /0), and an overlapping /24-/31-/32 pile-up below the first level
// where ties must resolve strictly by prefix length.
func edgeRoutes() []Route {
	return []Route{
		{Prefix: 0, Len: 0, NextHop: 1},
		{Prefix: ip(128, 0, 0, 0), Len: 1, NextHop: 9},
		{Prefix: ip(10, 0, 0, 0), Len: 8, NextHop: 2},
		{Prefix: ip(10, 1, 2, 0), Len: 24, NextHop: 3},
		{Prefix: ip(10, 1, 2, 2), Len: 31, NextHop: 5},
		{Prefix: ip(10, 1, 2, 3), Len: 32, NextHop: 4},
		{Prefix: ip(0, 0, 0, 0), Len: 32, NextHop: 7},
		{Prefix: ip(255, 255, 255, 255), Len: 32, NextHop: 8},
	}
}

// TestEdgeLongestMatchTies: table-driven walk over the overlapping set.
// The /31-/32 pair disagree only on the last bit — the longest covering
// route must win at 10.1.2.3 and lose at 10.1.2.2 — and the /32s at 0 and
// 2^32-1 force extended pages whose other 4095 entries fall back to the
// depth-0 default.
func TestEdgeLongestMatchTies(t *testing.T) {
	tbl := MustBuild(edgeRoutes(), Config{})
	cases := []struct {
		name    string
		addr    uint32
		wantHop int
		wantExt bool
	}{
		{"host route beats /31 on the shared bit", ip(10, 1, 2, 3), 4, true},
		{"/31 wins where the /32 does not cover", ip(10, 1, 2, 2), 5, true},
		{"/24 covers the rest of its page", ip(10, 1, 2, 4), 3, true},
		{"page entries outside /24 fall back to /8", ip(10, 1, 3, 1), 2, true},
		{"same /8, different first-level slot, no page", ip(10, 1, 200, 1), 2, false},
		{"/8 without any deep route", ip(10, 2, 0, 0), 2, false},
		{"host route at address zero", ip(0, 0, 0, 0), 7, true},
		{"zero page falls back to the /0 default", ip(0, 0, 0, 1), 1, true},
		{"host route at the top of the space", ip(255, 255, 255, 255), 8, true},
		{"top page falls back to the covering /1", ip(255, 255, 255, 254), 9, true},
		{"/1 beats /0 in the upper half", ip(200, 0, 0, 0), 9, false},
		{"/0 alone in the lower half", ip(1, 2, 3, 4), 1, false},
	}
	for _, tc := range cases {
		hop, ext := tbl.Lookup(tc.addr, nil)
		if hop != tc.wantHop || ext != tc.wantExt {
			t.Errorf("%s: Lookup(%08x) = (%d, %v), want (%d, %v)",
				tc.name, tc.addr, hop, ext, tc.wantHop, tc.wantExt)
		}
		if lin := LinearLookup(edgeRoutes(), tc.addr); hop != lin {
			t.Errorf("%s: table says %d, linear reference says %d", tc.name, hop, lin)
		}
	}
}

// TestEqualLengthDuplicateReplaces: per the Build contract, an
// equal-length duplicate is a route replacement — the last one wins —
// both in a plain first-level slot and inside an extended page.
func TestEqualLengthDuplicateReplaces(t *testing.T) {
	routes := []Route{
		{Prefix: 0, Len: 0, NextHop: 1},
		{Prefix: ip(10, 0, 0, 0), Len: 8, NextHop: 2},
		{Prefix: ip(10, 0, 0, 0), Len: 8, NextHop: 22},
		{Prefix: ip(10, 1, 2, 3), Len: 32, NextHop: 4},
		{Prefix: ip(10, 1, 2, 3), Len: 32, NextHop: 44},
	}
	tbl := MustBuild(routes, Config{})
	if hop, _ := tbl.Lookup(ip(10, 9, 9, 9), nil); hop != 22 {
		t.Errorf("shallow duplicate: got hop %d, want the replacement 22", hop)
	}
	if hop, _ := tbl.Lookup(ip(10, 1, 2, 3), nil); hop != 44 {
		t.Errorf("deep duplicate: got hop %d, want the replacement 44", hop)
	}
}

// TestPageSeedInheritsShallowRoute: Build sorts shortest-first, so the
// /16 is installed before the /32 forces the page — the page must be
// seeded from the slot's existing /16 so its 4095 other entries forward
// correctly, regardless of the order the caller listed the routes.
func TestPageSeedInheritsShallowRoute(t *testing.T) {
	routes := []Route{
		{Prefix: ip(10, 1, 2, 3), Len: 32, NextHop: 4},
		{Prefix: ip(10, 1, 0, 0), Len: 16, NextHop: 6},
	}
	tbl := MustBuild(routes, Config{})
	if hop, ext := tbl.Lookup(ip(10, 1, 2, 3), nil); hop != 4 || !ext {
		t.Errorf("host route = (%d, %v), want (4, true)", hop, ext)
	}
	if hop, ext := tbl.Lookup(ip(10, 1, 2, 4), nil); hop != 6 || !ext {
		t.Errorf("page neighbour = (%d, %v), want the /16 via the page (6, true)", hop, ext)
	}
	if tbl.Pages() != 1 {
		t.Errorf("Pages() = %d, want exactly 1", tbl.Pages())
	}
}

// TestNextHopLimit: an entry packs nextHop+1 into 24 bits, so 2^24−2 is
// the largest next hop that builds and looks up intact, at either level,
// and 2^24−1 is rejected rather than wrapped into "no route".
func TestNextHopLimit(t *testing.T) {
	const top = 1<<24 - 2
	tbl, err := Build([]Route{
		{Prefix: ip(10, 0, 0, 0), Len: 8, NextHop: top},
		{Prefix: ip(10, 1, 2, 3), Len: 32, NextHop: top - 1},
	}, Config{})
	if err != nil {
		t.Fatalf("next hop 2^24-2 rejected: %v", err)
	}
	if hop, ext := tbl.Lookup(ip(10, 9, 9, 9), nil); hop != top || ext {
		t.Errorf("first level = (%d, %v), want (%d, false)", hop, ext, top)
	}
	if hop, ext := tbl.Lookup(ip(10, 1, 2, 3), nil); hop != top-1 || !ext {
		t.Errorf("page = (%d, %v), want (%d, true)", hop, ext, top-1)
	}
	if hop, _ := tbl.Lookup(ip(10, 1, 2, 4), nil); hop != top {
		t.Errorf("page seeded from the /8 = %d, want %d", hop, top)
	}
	for _, hop := range []int{1<<24 - 1, 1 << 24, 1 << 40} {
		if _, err := Build([]Route{{Prefix: ip(10, 0, 0, 0), Len: 8, NextHop: hop}}, Config{}); err == nil {
			t.Errorf("accepted next hop %d", hop)
		}
	}
}

// TestZeroTableIsNoRoute: Build leaves the first level as allocated (all
// zero entries), so every uncovered address, in a plain slot and in a
// page seeded from an empty slot, must answer NoRoute, and a /0 to next
// hop 0 must still be told apart from no route.
func TestZeroTableIsNoRoute(t *testing.T) {
	empty := MustBuild(nil, Config{})
	for _, addr := range []uint32{0, ip(10, 1, 2, 3), ^uint32(0)} {
		if hop, ext := empty.Lookup(addr, nil); hop != NoRoute || ext {
			t.Errorf("empty table: Lookup(%08x) = (%d, %v), want (%d, false)", addr, hop, ext, NoRoute)
		}
	}
	host := MustBuild([]Route{{Prefix: ip(10, 1, 2, 3), Len: 32, NextHop: 0}}, Config{})
	if hop, ext := host.Lookup(ip(10, 1, 2, 3), nil); hop != 0 || !ext {
		t.Errorf("host route to hop 0 = (%d, %v), want (0, true)", hop, ext)
	}
	if hop, ext := host.Lookup(ip(10, 1, 2, 4), nil); hop != NoRoute || !ext {
		t.Errorf("page neighbour of an empty slot = (%d, %v), want (%d, true)", hop, ext, NoRoute)
	}
	if hop, _ := host.Lookup(ip(11, 0, 0, 0), nil); hop != NoRoute {
		t.Errorf("uncovered slot = %d, want %d", hop, NoRoute)
	}
	def := MustBuild([]Route{{Len: 0, NextHop: 0}}, Config{})
	if hop, _ := def.Lookup(ip(1, 2, 3, 4), nil); hop != 0 {
		t.Errorf("/0 to hop 0 = %d, want 0", hop)
	}
}

// TestLookupTimedAllocatesNothing: the metered per-packet route probe, at
// both depths of a v4 table and both walk lengths of a v6 one, must not
// allocate.
func TestLookupTimedAllocatesNothing(t *testing.T) {
	c := sim.MustNew(sim.Config{Cores: 1}).Core(0)
	tbl := MustBuild(sampleRoutes(), Config{})
	meter := NewMeter(c, DefaultTimingConfig())
	allocs := testing.AllocsPerRun(100, func() {
		tbl.Lookup(ip(10, 9, 9, 9), meter)
		tbl.Lookup(ip(10, 1, 2, 42), meter)
	})
	if allocs != 0 {
		t.Errorf("metered Lookup allocates %.1f times per pair of lookups, want 0", allocs)
	}

	tb6 := mustBuild6(t, []Route6{
		{Prefix: v6("2001:db8::"), Len: 32, NextHop: 1},
		{Prefix: v6("2001:db8::42"), Len: 128, NextHop: 2},
	})
	meter6 := NewMeter6(c, testTiming6)
	shallow, deep := v6("2001:db8:ffff::1"), v6("2001:db8::42")
	allocs = testing.AllocsPerRun(100, func() {
		tb6.Lookup(shallow, meter6)
		tb6.Lookup(deep, meter6)
	})
	if allocs != 0 {
		t.Errorf("metered v6 Lookup allocates %.1f times per pair of lookups, want 0", allocs)
	}
}
