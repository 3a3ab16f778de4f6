package core

import (
	"math/rand"
	"reflect"
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
			var want []Item
			for _, r := range integrateShards(shardByCore(set, Options{}, &d), set.Syms, Options{Parallelism: 1}) {
				want = append(want, r.items...)
			}
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
// order falls back to that sort.
func TestMergeItemsStableAndFallback(t *testing.T) {
	it := func(id, begin uint64, core int32) Item { return Item{ID: id, BeginTSC: begin, Core: core} }
	cases := map[string][][]Item{
		"cross-run ties": {
			{it(1, 5, 0), it(2, 5, 0), it(3, 9, 0)},
			{it(4, 5, 0), it(5, 7, 1)},
			{it(6, 5, 0), it(7, 9, 0)},
		},
		"unsorted run": {
			{it(1, 9, 0), it(2, 5, 0)},
			{it(3, 5, 1), it(4, 7, 1)},
		},
		"empty runs": {nil, {it(1, 3, 2)}, nil},
	}
	for name, runs := range cases {
		var want []Item
		for _, r := range runs {
			want = append(want, r...)
		}
		SortItems(want)
		if got := mergeItems(runs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: mergeItems = %v, want %v", name, got, want)
		}
	}
}
