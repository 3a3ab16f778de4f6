package trace

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/pmu"
	"repro/internal/sim"
)

// feedWalk collects a whole feed walk over s.
func feedWalk(s *Set) []int32 {
	var out []int32
	f := s.Feed()
	for r, ok := f.Next(); ok; r, ok = f.Next() {
		out = append(out, r)
	}
	return out
}

// oracleFeed is the feed order by its definition: every marker, then every
// sample, stably sorted by (core, TSC). Entry r < 0 is marker ^r.
func oracleFeed(s *Set) []int32 {
	type rec struct {
		core int32
		tsc  uint64
		ref  int32
	}
	var recs []rec
	for i, m := range s.Markers {
		recs = append(recs, rec{m.Core, m.TSC, ^int32(i)})
	}
	for i, sm := range s.Samples {
		recs = append(recs, rec{sm.Core, sm.TSC, int32(i)})
	}
	sort.SliceStable(recs, func(i, j int) bool {
		if recs[i].core != recs[j].core {
			return recs[i].core < recs[j].core
		}
		return recs[i].tsc < recs[j].tsc
	})
	out := make([]int32, len(recs))
	for i, r := range recs {
		out[i] = r.ref
	}
	return out
}

// capturedSet runs items data items over two simulated cores with three
// traced functions each and a PEBS sample every 1,000 uops. Marking is
// free, so every End shares its cycle with the next Begin.
func capturedSet(t testing.TB, items int) *Set {
	t.Helper()
	const cores = 2
	m := sim.MustNew(sim.Config{Cores: cores})
	fns := []string{"parse", "lookup", "render"}
	for _, name := range fns {
		m.Syms.MustRegister(name, 2048)
	}
	log := &MarkerLog{perCore: make([][]Marker, cores)}
	pebs := make([]*pmu.PEBS, cores)
	for ci := range pebs {
		pebs[ci] = pmu.NewPEBS(pmu.PEBSConfig{DoubleBuffer: true})
		m.Core(ci).PMU.MustProgram(pmu.UopsRetired, 1000, pebs[ci])
		first := uint64(ci * items / cores)
		m.MustSpawn(ci, func(c *sim.Core) {
			for id := first; id < first+uint64(items/cores); id++ {
				log.Mark(c, id, ItemBegin)
				for i, name := range fns {
					c.Call(m.Syms.ByName(name), func() { c.Exec(uint64(1500 + 1000*i + int(id%7)*40)) })
				}
				log.Mark(c, id, ItemEnd)
			}
		})
	}
	m.Wait()
	return NewSet(m, log, pmu.MergeSamples(pebs...))
}

// tieSet holds every tie the feed order decides, in (core, TSC) order: a
// marker and a sample on one cycle, two samples on one cycle, an End and a
// Begin on one cycle, and the same cycle on two cores.
func tieSet() *Set {
	return &Set{
		Markers: []Marker{
			{Core: 0, TSC: 10, Item: 1, Kind: ItemBegin},
			{Core: 0, TSC: 30, Item: 1, Kind: ItemEnd},
			{Core: 0, TSC: 30, Item: 2, Kind: ItemBegin},
			{Core: 0, TSC: 50, Item: 2, Kind: ItemEnd},
			{Core: 1, TSC: 10, Item: 3, Kind: ItemBegin},
			{Core: 1, TSC: 20, Item: 3, Kind: ItemEnd},
		},
		Samples: []pmu.Sample{
			{Core: 0, TSC: 10, IP: 1},
			{Core: 0, TSC: 20, IP: 2},
			{Core: 0, TSC: 20, IP: 3},
			{Core: 0, TSC: 30, IP: 4},
			{Core: 0, TSC: 50, IP: 5},
			{Core: 1, TSC: 10, IP: 6},
			{Core: 1, TSC: 20, IP: 7},
			{Core: 1, TSC: 20, IP: 8},
		},
	}
}

// shuffled is s with both streams in a seeded random order.
func shuffled(s *Set, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	out := *s
	out.Markers = append([]Marker(nil), s.Markers...)
	out.Samples = append([]pmu.Sample(nil), s.Samples...)
	rng.Shuffle(len(out.Markers), func(i, j int) { out.Markers[i], out.Markers[j] = out.Markers[j], out.Markers[i] })
	rng.Shuffle(len(out.Samples), func(i, j int) { out.Samples[i], out.Samples[j] = out.Samples[j], out.Samples[i] })
	return &out
}

// TestFeedMatchesStableSort: the walk yields exactly the stable sort's
// order, merging when both streams are in (core, TSC) order and sorting
// when either is not.
func TestFeedMatchesStableSort(t *testing.T) {
	captured := capturedSet(t, 200)
	var buf bytes.Buffer
	if err := captured.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		set   *Set
		merge bool
	}{
		{"captured", captured, true},
		{"decoded", decoded, true},
		{"ties", tieSet(), true},
		{"empty", &Set{}, true},
		{"markers-only", &Set{Markers: tieSet().Markers}, true},
		{"samples-only", &Set{Samples: tieSet().Samples}, true},
		{"captured-shuffled", shuffled(captured, 1), false},
		{"ties-shuffled", shuffled(tieSet(), 2), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.set.Feed()
			if merge := f.order == nil; merge != tc.merge {
				t.Fatalf("merge path %v, want %v", merge, tc.merge)
			}
			want := oracleFeed(tc.set)
			if got := feedWalk(tc.set); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("feed walk differs from the stable sort:\n got %v\nwant %v", got, want)
			}
		})
	}
	if n := len(captured.Markers) + len(captured.Samples); n < 1000 {
		t.Fatalf("captured set has only %d records", n)
	}
}

// TestFeedTieOrder pins the ties by hand: markers first on a shared cycle,
// End before Begin, samples in set order.
func TestFeedTieOrder(t *testing.T) {
	want := []int32{^0, 0, 1, 2, ^1, ^2, 3, ^3, 4, ^4, 5, ^5, 6, 7}
	if got := feedWalk(tieSet()); !reflect.DeepEqual(got, want) {
		t.Fatalf("feed walk = %v, want %v", got, want)
	}
}

// TestFeedNeverRereads: a caller may rewrite every record the walk has
// returned and still gets the order the timestamps had when it started.
func TestFeedNeverRereads(t *testing.T) {
	for _, set := range []*Set{capturedSet(t, 40), tieSet(), shuffled(tieSet(), 3)} {
		want := oracleFeed(set)
		var got []int32
		f := set.Feed()
		for r, ok := f.Next(); ok; r, ok = f.Next() {
			got = append(got, r)
			// Reverse the clock and swap the core of what was returned.
			if r < 0 {
				m := &set.Markers[^r]
				m.TSC, m.Core = math.MaxUint64-m.TSC, -1-m.Core
			} else {
				s := &set.Samples[r]
				s.TSC, s.Core = math.MaxUint64-s.TSC, -1-s.Core
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("walk re-read a rewritten record:\n got %v\nwant %v", got, want)
		}
	}
}

// TestFeedAllocs: walking an in-order set allocates nothing.
func TestFeedAllocs(t *testing.T) {
	set := capturedSet(t, 200)
	n := 0
	allocs := testing.AllocsPerRun(20, func() {
		f := set.Feed()
		for _, ok := f.Next(); ok; _, ok = f.Next() {
			n++
		}
	})
	if allocs != 0 {
		t.Fatalf("feed walk of an in-order set: %v allocations, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("walk returned nothing")
	}
}

// BenchmarkFeed times one walk over a 2,000-item captured set.
func BenchmarkFeed(b *testing.B) {
	set := capturedSet(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := set.Feed()
		for _, ok := f.Next(); ok; _, ok = f.Next() {
		}
	}
}
