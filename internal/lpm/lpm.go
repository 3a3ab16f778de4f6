// Package lpm implements a DIR-24-8-style longest-prefix-match table, the
// other classic DPDK data-plane structure beside the ACL: a direct-indexed
// first-level table covering the top bits of the destination address, with
// per-prefix second-level pages for routes longer than the first-level
// width.
//
// Its fluctuation mechanism differs from the ACL's: every lookup costs one
// memory probe, but destinations covered by a long prefix take a second
// probe into an overflow page — so two packets to nearby addresses can
// differ in latency purely by how deep their covering route is, and by
// whether the relevant table lines are cache-warm. That makes it a natural
// second case study for the tracer.
//
// Both levels hold 4-byte packed entries in DPDK's tbl24 layout: bits 0–23
// carry nextHop+1 (or, in an extended first-level slot, the overflow page
// index), bits 24–29 carry depth+1, and bit 31 marks an extended slot. The
// zero entry is "no route", so a fresh table needs no fill, and a next hop
// must stay below 2^24−1, DPDK's limit.
package lpm

import (
	"fmt"
)

// FirstLevelBits is the direct-index width. Real DPDK uses 24 (a 16M-entry
// table); 20 keeps the table at 1M entries — same two-probe behaviour, one
// quarter the memory — and remains configurable in Config.
const FirstLevelBits = 20

// Overflow pages cover all remaining low bits of an extended slot, so
// every prefix length up to /32 is represented exactly (DPDK's tbl8 does
// the same for its 24-bit first level: 24 + 8 = 32).

// NoRoute is returned when no prefix covers an address.
const NoRoute = -1

// Route is one forwarding entry.
type Route struct {
	// Prefix is the network address (host byte order).
	Prefix uint32
	// Len is the prefix length, 0..32.
	Len int
	// NextHop is the forwarding decision (an interface/neighbour index,
	// must be >= 0).
	NextHop int
}

// Validate reports whether the route is well-formed.
func (r Route) Validate() error {
	if r.Len < 0 || r.Len > 32 {
		return fmt.Errorf("lpm: prefix length %d out of range", r.Len)
	}
	if r.NextHop < 0 {
		return fmt.Errorf("lpm: negative next hop %d", r.NextHop)
	}
	if r.NextHop > maxNextHop {
		return fmt.Errorf("lpm: next hop %d does not fit 24 bits (max %d)", r.NextHop, maxNextHop)
	}
	if r.Len < 32 && r.Prefix<<uint(r.Len) != 0 {
		return fmt.Errorf("lpm: prefix %08x has bits below /%d", r.Prefix, r.Len)
	}
	return nil
}

// entry is one packed slot of either level (see the package doc). The
// timing model charges 4 bytes per entry, which is what it occupies.
type entry uint32

const (
	valueMask   = 1<<24 - 1 // nextHop+1, or the page index when extended
	depthShift  = 24        // depth+1 in bits 24–29
	extendedBit = 1 << 31
	// maxNextHop is the largest next hop nextHop+1 leaves room for.
	maxNextHop = valueMask - 1
)

// routeEntry packs a terminal slot for a route of length depth.
func routeEntry(nextHop, depth int) entry {
	return entry(nextHop+1) | entry(depth+1)<<depthShift
}

// pageEntry packs an extended first-level slot pointing at page.
func pageEntry(page int) entry { return extendedBit | entry(page) }

func (e entry) extended() bool { return e&extendedBit != 0 }

// nextHop is NoRoute for the zero entry.
func (e entry) nextHop() int { return int(e&valueMask) - 1 }

// depth is -1 for the zero entry, so any route replaces it.
func (e entry) depth() int { return int(e>>depthShift&0x3f) - 1 }

func (e entry) page() uint32 { return uint32(e & valueMask) }

// Table is a built LPM table.
type Table struct {
	firstBits uint
	tbl       []entry
	pages     [][]entry
	routes    int
}

// Config parameterizes the build.
type Config struct {
	// FirstLevelBits is the direct-index width (default FirstLevelBits).
	FirstLevelBits int
}

// Build compiles routes into a table. Longer prefixes win; equal-length
// duplicates keep the last one (like route replacement).
func Build(routes []Route, cfg Config) (*Table, error) {
	bits := cfg.FirstLevelBits
	if bits == 0 {
		bits = FirstLevelBits
	}
	if bits < 8 || bits > 24 {
		return nil, fmt.Errorf("lpm: first-level width %d out of range [8,24]", bits)
	}
	t := &Table{firstBits: uint(bits), tbl: make([]entry, 1<<bits)}
	// Insert shortest-first so longer prefixes overwrite.
	ordered := append([]Route(nil), routes...)
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

// MustBuild is Build but panics on error.
func MustBuild(routes []Route, cfg Config) *Table {
	t, err := Build(routes, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Table) insert(r Route) {
	shift := 32 - t.firstBits
	e := routeEntry(r.NextHop, r.Len)
	if uint(r.Len) <= t.firstBits {
		// The route covers whole first-level slots.
		lo := r.Prefix >> shift
		count := uint32(1) << (t.firstBits - uint(r.Len))
		for i := uint32(0); i < count; i++ {
			slot := &t.tbl[lo+i]
			if slot.extended() {
				// Fill the page's shallower entries.
				page := t.pages[slot.page()]
				for k := range page {
					if page[k].depth() <= r.Len {
						page[k] = e
					}
				}
				continue
			}
			if slot.depth() <= r.Len {
				*slot = e
			}
		}
		return
	}
	// The route lives below the first level: extend its slot with a page
	// covering every remaining low bit, seeded from the slot's route. A
	// page index fits 24 bits: there is at most one page per slot.
	pageLen := 1 << shift
	slotIdx := r.Prefix >> shift
	slot := &t.tbl[slotIdx]
	if !slot.extended() {
		page := make([]entry, pageLen)
		for k := range page {
			page[k] = *slot
		}
		t.pages = append(t.pages, page)
		*slot = pageEntry(len(t.pages) - 1)
	}
	page := t.pages[slot.page()]
	low := int(r.Prefix & (uint32(pageLen) - 1))
	span := 1 << (32 - uint(r.Len))
	for i := 0; i < span && low+i < pageLen; i++ {
		if pe := &page[low+i]; pe.depth() <= r.Len {
			*pe = e
		}
	}
}

// Lookup returns the next hop for addr and whether the lookup needed the
// second-level probe (the latency-relevant fact).
func (t *Table) Lookup(addr uint32) (nextHop int, extended bool) {
	shift := 32 - t.firstBits
	slot := t.tbl[addr>>shift]
	if !slot.extended() {
		return slot.nextHop(), false
	}
	return t.pages[slot.page()][addr&(1<<shift-1)].nextHop(), true
}

// LinearLookup is the O(routes) reference the table is property-tested
// against: scan all routes, keep the longest match.
func LinearLookup(routes []Route, addr uint32) int {
	best := NoRoute
	bestLen := -1
	for _, r := range routes {
		if r.Len > bestLen && matches(r, addr) {
			best, bestLen = r.NextHop, r.Len
		}
	}
	return best
}

func matches(r Route, addr uint32) bool {
	if r.Len == 0 {
		return true
	}
	shift := uint(32 - r.Len)
	return r.Prefix>>shift == addr>>shift
}

// Routes returns the number of installed routes.
func (t *Table) Routes() int { return t.routes }

// Pages returns the number of overflow pages allocated.
func (t *Table) Pages() int { return len(t.pages) }

// FirstLevelEntries returns the first-level table size.
func (t *Table) FirstLevelEntries() int { return len(t.tbl) }
