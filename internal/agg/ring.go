// Package agg is the second tier of the collector fleet: the global
// aggregator. Shard collectors — ordinary internal/collector instances,
// each owning the sources that consistent-hash to it — forward every
// source's refreshed fleet row upstream as wire.TFleetSummary frames over
// the same seq/ack + spool machinery workers use to reach them; the
// aggregator merges the rows into one fleet-wide /fleet view and top-K
// slowest-items report, byte-equivalent (for stable shard ownership) to a
// single collector that had integrated every source itself.
package agg

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/hashx"
)

// ringVnodes is the default virtual-node count per shard. More vnodes
// smooth the assignment (the property test pins the resulting balance
// bound); the cost is an N·vnodes-point sorted ring, negligible at fleet
// shard counts.
const ringVnodes = 128

// Ring is the fleet membership table: a consistent-hash ring mapping
// source IDs to shard collectors. Assignment is a pure function of the
// member set — fully specified hashing, no map iteration, no
// runtime-seeded state — so every process that knows the membership
// (workers picking an uplink, the harness computing expected ownership)
// derives the identical assignment. Adding a shard moves sources only TO
// the new shard; removing one moves only the sources it owned — the
// ~S/N rebalance minimality the property tests pin.
//
// Ring is not goroutine-safe; guard it externally if membership changes
// race lookups.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by (hash, shard)
	shards []string    // sorted, unique
}

// ringPoint is one virtual node: a position on the hash circle owned by a
// shard.
type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds a membership table over the given shards with the
// default virtual-node count.
func NewRing(shards ...string) *Ring {
	r := &Ring{vnodes: ringVnodes}
	for _, s := range shards {
		r.Add(s)
	}
	return r
}

// Add joins a shard to the membership. Adding a present shard is a no-op.
func (r *Ring) Add(shard string) {
	if shard == "" {
		return
	}
	if _, ok := slices.BinarySearch(r.shards, shard); ok {
		return
	}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{hash: vnodeHash(shard, i), shard: shard})
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		if a.hash != b.hash {
			return cmp.Compare(a.hash, b.hash)
		}
		return cmp.Compare(a.shard, b.shard)
	})
	idx, _ := slices.BinarySearch(r.shards, shard)
	r.shards = slices.Insert(r.shards, idx, shard)
}

// Remove leaves a shard from the membership. Removing an absent shard is
// a no-op.
func (r *Ring) Remove(shard string) {
	idx, ok := slices.BinarySearch(r.shards, shard)
	if !ok {
		return
	}
	r.shards = slices.Delete(r.shards, idx, idx+1)
	r.points = slices.DeleteFunc(r.points, func(p ringPoint) bool { return p.shard == shard })
}

// Owner returns the shard owning source: the first virtual node at or
// after the source's hash, wrapping at the top of the circle. Empty
// membership returns "".
func (r *Ring) Owner(source string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashx.Mix64(hashx.FNV1a(source))
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Shards returns the membership, sorted ascending.
func (r *Ring) Shards() []string {
	return slices.Clone(r.shards)
}

// HandoffSet computes a planned drain's transfer plan: given the current
// membership, the departing shard, and the sources the departing shard
// owns, it returns destination → sources under the post-departure ring.
// Because removal moves exactly the removed shard's sources (the leave
// minimality the ring property tests pin), this set IS the rebalance
// delta — nothing else in the fleet moves, and the property test in
// ring_test.go holds the two computations equal at seeded sweeps. Source
// order within each destination follows the input order (the drainer
// passes them sorted), so the plan is deterministic end to end.
func HandoffSet(members []string, departing string, sources []string) map[string][]string {
	post := NewRing(members...)
	post.Remove(departing)
	plan := map[string][]string{}
	for _, src := range sources {
		dest := post.Owner(src)
		if dest == "" {
			// Last shard leaving: no successor exists. The caller decides
			// what graceful means (keep serving or drop); an empty plan
			// reports it.
			continue
		}
		plan[dest] = append(plan[dest], src)
	}
	return plan
}

// vnodeHash places one of a shard's virtual nodes on the circle. The
// shard's FNV-1a hash is perturbed per vnode and finalized with a
// splitmix64 mix so consecutive vnode indices land far apart.
func vnodeHash(shard string, vnode int) uint64 {
	return hashx.Mix64(hashx.FNV1a(shard) ^ hashx.Mix64(uint64(vnode)+0x9e3779b97f4a7c15))
}
