package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/pmu"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// tiedTraceSet gives every core the same Begin instants, so items on
// different cores share a BeginTSC, and some items are zero-length, so a
// core also begins several items at one instant.
func tiedTraceSet(rng *rand.Rand, cores int) *trace.Set {
	tab := symtab.NewTable()
	fn := tab.MustRegister("fn", 256)
	set := &trace.Set{FreqHz: 2_000_000_000, Syms: tab}
	id := uint64(1)
	for c := 0; c < cores; c++ {
		r := rand.New(rand.NewSource(7)) // the same instants on every core
		tsc := uint64(1000)
		for n := 0; n < 40; n++ {
			span := uint64(r.Intn(3)) * 100 // 0: Begin and End on one cycle
			set.Markers = append(set.Markers,
				trace.Marker{Item: id, TSC: tsc, Core: int32(c), Kind: trace.ItemBegin},
				trace.Marker{Item: id, TSC: tsc + span, Core: int32(c), Kind: trace.ItemEnd})
			for s := rng.Intn(3); s > 0; s-- {
				set.Samples = append(set.Samples, pmu.Sample{TSC: tsc + uint64(rng.Intn(int(span)+1)),
					IP: fn.Base + uint64(rng.Intn(64)), Core: int32(c), Event: pmu.UopsRetired})
			}
			id++
			tsc += span
		}
	}
	rng.Shuffle(len(set.Markers), func(i, j int) { set.Markers[i], set.Markers[j] = set.Markers[j], set.Markers[i] })
	return set
}

// TestMergeItemsMatchesSort: Integrate merges the per-core results instead
// of sorting their concatenation; on ties across cores, ties within a
// core and random imperfect traces, at Parallelism 1 and N, its items must
// equal the stable sort of the shards' output.
func TestMergeItemsMatchesSort(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sets := []*trace.Set{tiedTraceSet(rng, 1+int(seed%4)), randomTraceSet(rng)}
		for si, set := range sets {
			var d Diagnostics
			_, want := integrateShards(shardByCore(set, Options{}, &d), set.Syms, Options{Parallelism: 1})
			SortItems(want)
			for _, par := range []int{1, 4} {
				a, err := Integrate(set, Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if len(want) == 0 && len(a.Items) == 0 {
					continue
				}
				if !reflect.DeepEqual(a.Items, want) {
					t.Fatalf("seed %d set %d parallelism %d: merged items differ from SortItems", seed, si, par)
				}
			}
		}
	}
}

// TestMergeItemsStableAndFallback: equal keys in different runs keep run
// order, as a stable sort of the concatenation does, and a run out of
// order falls back to that sort, both on the one array the runs share.
func TestMergeItemsStableAndFallback(t *testing.T) {
	it := func(id, begin uint64, core int32) Item { return Item{ID: id, BeginTSC: begin, Core: core} }
	cases := map[string][][]Item{
		"cross-run ties": {
			{it(1, 5, 0), it(2, 5, 0), it(3, 9, 0)},
			{it(4, 5, 0), it(5, 7, 1)},
			{it(6, 5, 0), it(7, 9, 0)},
		},
		"three runs sharing keys": {
			{it(1, 5, 0), it(2, 5, 0), it(3, 6, 0), it(4, 9, 0)},
			{it(5, 1, 0), it(6, 5, 0), it(7, 6, 0), it(8, 6, 0)},
			{it(9, 5, 0), it(10, 5, 0), it(11, 6, 0), it(12, 9, 0), it(13, 9, 0)},
		},
		"unsorted run": {
			{it(1, 9, 0), it(2, 5, 0)},
			{it(3, 5, 1), it(4, 7, 1)},
		},
		"unsorted middle of three": {
			{it(1, 3, 0), it(2, 5, 0)},
			{it(3, 9, 1), it(4, 2, 1), it(5, 9, 1)},
			{it(6, 3, 0), it(7, 5, 2)},
		},
		"empty runs": {nil, {it(1, 3, 2)}, nil},
	}
	rng := rand.New(rand.NewSource(1))
	for c := 0; c < 20; c++ {
		runs := make([][]Item, 1+rng.Intn(5))
		id := uint64(1)
		for r := range runs {
			for n := rng.Intn(12); n > 0; n-- {
				runs[r] = append(runs[r], it(id, uint64(rng.Intn(8)), int32(rng.Intn(2))))
				id++
			}
			if rng.Intn(4) > 0 {
				SortItems(runs[r])
			}
		}
		cases[fmt.Sprintf("random %d", c)] = runs
	}
	for name, runs := range cases {
		var got []Item
		ends := make([]int, len(runs))
		for i, r := range runs {
			got = append(got, r...)
			ends[i] = len(got)
		}
		want := slices.Clone(got)
		SortItems(want)
		if mergeItems(got, ends); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: mergeItems = %v, want %v", name, got, want)
		}
	}
}
