package lpm

import (
	"fmt"
	"net/netip"
)

// IPv6 longest-prefix match. DIR-24-8's flat first level does not scale to
// 128-bit addresses, so Table6 is a stride-8 multibit trie (the shape real
// stacks use for v6, e.g. DPDK's rte_lpm6 with its 8-bit tbl8 strides): one
// node per consumed address byte, each node a 256-way array of (next hop,
// depth) entries plus child pointers. A lookup walks one node per byte
// until the chain runs out — so the number of node probes equals
// ceil(covering prefix length / 8), and a /128 host route walks all 16
// levels. That per-destination depth variance is this structure's organic
// fluctuation mechanism, the v6 analogue of DIR-24-8's two-probe case.

// Route6 is one IPv6 forwarding entry.
type Route6 struct {
	// Prefix is the network address; bits below Len must be zero.
	Prefix [16]byte
	// Len is the prefix length, 0..128.
	Len int
	// NextHop is the forwarding decision (must be >= 0).
	NextHop int
}

// Validate reports whether the route is well-formed.
func (r Route6) Validate() error {
	if r.Len < 0 || r.Len > 128 {
		return fmt.Errorf("lpm: v6 prefix length %d out of range", r.Len)
	}
	if r.NextHop < 0 {
		return fmt.Errorf("lpm: negative next hop %d", r.NextHop)
	}
	for i := 0; i < 16; i++ {
		bits := r.Len - 8*i
		var keep byte
		switch {
		case bits >= 8:
			keep = 0xff
		case bits <= 0:
			keep = 0
		default:
			keep = 0xff << (8 - bits)
		}
		if r.Prefix[i]&^keep != 0 {
			return fmt.Errorf("lpm: v6 prefix %s has bits below /%d", netip.AddrFrom16(r.Prefix), r.Len)
		}
	}
	return nil
}

// node6 is one trie level: entries for routes terminating at this level
// and children for routes that continue past it.
type node6 struct {
	idx   int // ordinal, for the timing model's synthetic addresses
	hop   [256]int32
	depth [256]int16 // -1: no route terminates here for this byte value
	child [256]*node6
}

// Table6 is a built IPv6 LPM table.
type Table6 struct {
	root   *node6
	routes int
	nodes  int
}

// Build6 compiles routes into a table. Longer prefixes win; equal-length
// duplicates keep the last one (route replacement), matching LinearLookup6.
func Build6(routes []Route6) (*Table6, error) {
	t := &Table6{}
	t.root = t.newNode()
	// Insert shortest-first so longer prefixes overwrite; the sort is
	// stable so equal-length routes keep input order and last wins.
	ordered := append([]Route6(nil), routes...)
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j].Len < ordered[j-1].Len; j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	for _, r := range ordered {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		t.insert(r)
		t.routes++
	}
	return t, nil
}

func (t *Table6) newNode() *node6 {
	n := &node6{idx: t.nodes}
	t.nodes++
	for v := range n.depth {
		n.depth[v] = -1
		n.hop[v] = NoRoute
	}
	return n
}

func (t *Table6) insert(r Route6) {
	if r.Len == 0 {
		// The default route terminates "before" the first byte: it covers
		// every root entry at depth 0.
		for v := 0; v < 256; v++ {
			if t.root.depth[v] <= 0 {
				t.root.hop[v] = int32(r.NextHop)
				t.root.depth[v] = 0
			}
		}
		return
	}
	level := (r.Len - 1) / 8
	n := t.root
	for i := 0; i < level; i++ {
		b := r.Prefix[i]
		if n.child[b] == nil {
			n.child[b] = t.newNode()
		}
		n = n.child[b]
	}
	bitsHere := r.Len - 8*level // 1..8
	lo := int(r.Prefix[level])
	span := 1 << (8 - bitsHere)
	for v := lo; v < lo+span; v++ {
		if n.depth[v] <= int16(r.Len) {
			n.hop[v] = int32(r.NextHop)
			n.depth[v] = int16(r.Len)
		}
	}
}

// Lookup returns the next hop for addr and the number of trie levels
// probed (≥1) — the latency-relevant fact: destinations covered only by
// deep prefixes walk more levels. Each level is charged to m as it is
// walked (nil m: untimed).
func (t *Table6) Lookup(addr [16]byte, m *Meter6) (nextHop int, levels int) {
	m.start()
	best := NoRoute
	n := t.root
	for i := 0; i < 16 && n != nil; i++ {
		levels++
		b := addr[i]
		m.level(n, b)
		if n.depth[b] >= 0 {
			best = int(n.hop[b])
		}
		n = n.child[b]
	}
	return best, levels
}

// LinearLookup6 is the O(routes) reference: scan all routes, keep the
// longest match, last one wins on equal length (Build6's replacement
// semantics).
func LinearLookup6(routes []Route6, addr [16]byte) int {
	best := NoRoute
	bestLen := -1
	for _, r := range routes {
		if r.Len >= bestLen && matches6(r, addr) {
			best, bestLen = r.NextHop, r.Len
		}
	}
	return best
}

func matches6(r Route6, addr [16]byte) bool {
	bits := r.Len
	for i := 0; i < 16 && bits > 0; i++ {
		var keep byte = 0xff
		if bits < 8 {
			keep = 0xff << (8 - bits)
		}
		if (r.Prefix[i]^addr[i])&keep != 0 {
			return false
		}
		bits -= 8
	}
	return true
}

// Routes returns the number of installed routes.
func (t *Table6) Routes() int { return t.routes }

// MustAddr6 parses an IPv6 address into its 16-byte form (panics on bad
// input; used for literal route tables).
func MustAddr6(s string) [16]byte {
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is6() || a.Is4In6() {
		panic(fmt.Sprintf("lpm: bad IPv6 address %q", s))
	}
	return a.As16()
}
