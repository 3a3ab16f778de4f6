package agg

import (
	"fmt"
	"testing"
)

// sweepSources generates n deterministic source IDs from a seed, the
// seeded-sweep idiom the jitter-bounds tests use: a fully specified PRNG
// so every process draws the identical population.
func sweepSources(seed uint64, n int) []string {
	state := seed
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("host%06x-pid%d", next()&0xffffff, 1000+next()%60000)
	}
	return out
}

func shardNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("shard-%c", 'a'+i)
	}
	return out
}

// TestRingDeterminism: assignment is a pure function of the member set —
// identical across insertion orders, across fresh rings, and (via the
// pinned goldens) across processes and Go versions. A hash change that
// silently reshuffled the fleet would strand every source's shard state.
func TestRingDeterminism(t *testing.T) {
	fwd := NewRing("shard-a", "shard-b", "shard-c", "shard-d")
	rev := NewRing("shard-d", "shard-c", "shard-b", "shard-a")
	for _, src := range sweepSources(7, 2000) {
		if a, b := fwd.Owner(src), rev.Owner(src); a != b {
			t.Fatalf("insertion order changed owner of %q: %q vs %q", src, a, b)
		}
	}
	// Goldens pin the hash itself, not just internal consistency.
	golden := []struct{ source, owner string }{
		{"worker-1", "shard-b"},
		{"worker-2", "shard-d"},
		{"worker-3", "shard-b"},
		{"host42-pid9", "shard-b"},
		{"db.example.com-331", "shard-a"},
		{"x", "shard-b"},
		{"bench-0", "shard-d"},
		{"edge-17.rack4", "shard-a"},
		{"w", "shard-d"},
		{"fleet/eu-west/12", "shard-b"},
	}
	for _, g := range golden {
		if got := fwd.Owner(g.source); got != g.owner {
			t.Errorf("Owner(%q) = %q, want pinned %q — the ring hash changed; "+
				"this reshuffles every deployed fleet", g.source, got, g.owner)
		}
	}
}

// TestRingBalance: with the default vnode count, no shard owns more than
// ~1.75× its fair share — consistent hashing's balance, pinned across a
// seeded sweep of populations and member counts.
func TestRingBalance(t *testing.T) {
	for _, nShards := range []int{2, 4, 8} {
		for seed := uint64(1); seed <= 5; seed++ {
			const S = 4000
			r := NewRing(shardNames(nShards)...)
			counts := map[string]int{}
			for _, src := range sweepSources(seed, S) {
				counts[r.Owner(src)]++
			}
			fair := float64(S) / float64(nShards)
			for shard, n := range counts {
				if float64(n) > 1.75*fair {
					t.Errorf("shards=%d seed=%d: %s owns %d sources, fair share %.0f (>1.75×)",
						nShards, seed, shard, n, fair)
				}
			}
		}
	}
}

// TestRingJoinMinimality: adding a shard moves sources only TO the new
// shard, and roughly a fair share of them — never a broad reshuffle. This
// is the property that makes a rebalance cheap: only the moved sources'
// integrator state restarts on a new owner.
func TestRingJoinMinimality(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		const S = 4000
		sources := sweepSources(seed, S)
		before := NewRing(shardNames(4)...)
		owners := map[string]string{}
		for _, src := range sources {
			owners[src] = before.Owner(src)
		}
		after := NewRing(shardNames(4)...)
		after.Add("shard-new")
		moved := 0
		for _, src := range sources {
			now := after.Owner(src)
			if now != owners[src] {
				moved++
				if now != "shard-new" {
					t.Fatalf("seed=%d: join moved %q from %q to %q — only moves TO the "+
						"joining shard are allowed", seed, src, owners[src], now)
				}
			}
		}
		fair := float64(S) / 5
		if float64(moved) > 1.75*fair {
			t.Errorf("seed=%d: join moved %d sources, fair share %.0f (>1.75×)", seed, moved, fair)
		}
		if moved == 0 {
			t.Errorf("seed=%d: join moved nothing — the new shard owns no sources", seed)
		}
	}
}

// TestRingLeaveMinimality: removing a shard moves exactly the sources it
// owned; every other source keeps its owner (so a shard crash disturbs
// only its own sources' assignment).
func TestRingLeaveMinimality(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		const S = 4000
		sources := sweepSources(seed, S)
		before := NewRing(shardNames(4)...)
		after := NewRing(shardNames(4)...)
		after.Remove("shard-c")
		moved := 0
		for _, src := range sources {
			was, now := before.Owner(src), after.Owner(src)
			if was == "shard-c" {
				if now == "shard-c" || now == "" {
					t.Fatalf("seed=%d: %q still assigned to removed shard", seed, src)
				}
				moved++
			} else if now != was {
				t.Fatalf("seed=%d: leave of shard-c moved %q from %q to %q — sources on "+
					"surviving shards must not move", seed, src, was, now)
			}
		}
		fair := float64(S) / 4
		if float64(moved) > 1.75*fair {
			t.Errorf("seed=%d: shard-c owned %d sources, fair share %.0f (>1.75×)", seed, moved, fair)
		}
	}
}

// TestRingEdgeCases: empty membership, single shard, duplicate add,
// absent remove.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing()
	if got := r.Owner("w"); got != "" {
		t.Errorf("empty ring owned %q", got)
	}
	r.Add("only")
	r.Add("only") // duplicate: no-op
	if len(r.Shards()) != 1 {
		t.Errorf("duplicate add grew membership: %v", r.Shards())
	}
	for _, src := range sweepSources(3, 100) {
		if got := r.Owner(src); got != "only" {
			t.Fatalf("single-shard ring sent %q to %q", src, got)
		}
	}
	r.Remove("absent") // no-op
	r.Remove("only")
	if got := r.Owner("w"); got != "" {
		t.Errorf("emptied ring owned %q", got)
	}
}

// TestHandoffSetMatchesLeaveDelta: the transfer plan a draining shard
// computes (HandoffSet over the sources it owns) is exactly the
// rebalance delta the leave-minimality test pins — every owned source
// appears once, routed to its post-departure owner, and nothing else
// moves. If these ever diverged, a drain would strand or duplicate
// source state.
func TestHandoffSetMatchesLeaveDelta(t *testing.T) {
	const S = 4000
	for _, nShards := range []int{2, 4, 8} {
		members := shardNames(nShards)
		departing := members[nShards/2]
		for seed := uint64(1); seed <= 5; seed++ {
			sources := sweepSources(seed, S)
			before := NewRing(members...)
			after := NewRing(members...)
			after.Remove(departing)

			var owned []string
			for _, src := range sources {
				if before.Owner(src) == departing {
					owned = append(owned, src)
				}
			}
			plan := HandoffSet(members, departing, owned)

			planned := 0
			for dest, srcs := range plan {
				if dest == departing {
					t.Fatalf("n=%d seed=%d: plan routes sources back to the departing shard", nShards, seed)
				}
				planned += len(srcs)
				for _, src := range srcs {
					if want := after.Owner(src); dest != want {
						t.Fatalf("n=%d seed=%d: %q planned to %q, post-departure owner is %q",
							nShards, seed, src, dest, want)
					}
					if before.Owner(src) != departing {
						t.Fatalf("n=%d seed=%d: %q moved but %q owned it", nShards, seed, src, before.Owner(src))
					}
				}
			}
			if planned != len(owned) {
				t.Fatalf("n=%d seed=%d: plan covers %d of %d owned sources", nShards, seed, planned, len(owned))
			}
			// Minimality cross-check: sources the departing shard did NOT own
			// keep their owner, so the plan IS the full rebalance delta.
			for _, src := range sources {
				if b := before.Owner(src); b != departing {
					if a := after.Owner(src); a != b {
						t.Fatalf("n=%d seed=%d: unowned %q moved %q→%q during the leave", nShards, seed, src, b, a)
					}
				}
			}
		}
	}
	// Last shard leaving: no successor, empty plan.
	if plan := HandoffSet([]string{"solo"}, "solo", []string{"w1", "w2"}); len(plan) != 0 {
		t.Fatalf("sole-shard departure produced a plan: %v", plan)
	}
}
