package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/pmu"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// randomTraceSet builds a synthetic trace with deliberately imperfect
// streams: multiple cores, shuffled record order, orphan End markers,
// forced reopens, unclosed items, unresolvable IPs, wrong-event samples,
// and samples on interval boundaries and in inter-item gaps.
func randomTraceSet(rng *rand.Rand) *trace.Set {
	tab := symtab.NewTable()
	fns := make([]*symtab.Fn, 6)
	for i := range fns {
		fns[i] = tab.MustRegister(fmt.Sprintf("fn%d", i), 64+uint64(rng.Intn(4))*256)
	}
	set := &trace.Set{FreqHz: 2_100_000_000, Syms: tab}

	cores := 1 + rng.Intn(5)
	id := uint64(1)
	for core := 0; core < cores; core++ {
		tsc := uint64(1000 + rng.Intn(500))
		items := rng.Intn(30)
		for n := 0; n < items; n++ {
			begin := tsc
			set.Markers = append(set.Markers, trace.Marker{Item: id, TSC: begin, Core: int32(core), Kind: trace.ItemBegin})
			span := uint64(50 + rng.Intn(2000))
			for s := 0; s < rng.Intn(12); s++ {
				// Sample somewhere around the item, including exactly on
				// the boundaries and past the end.
				at := begin + uint64(rng.Intn(int(span)+100))
				ip := fns[rng.Intn(len(fns))].Base + uint64(rng.Intn(64))
				if rng.Intn(8) == 0 {
					ip = 0xdead_0000 + uint64(rng.Intn(64)) // unresolvable
				}
				ev := pmu.UopsRetired
				if rng.Intn(10) == 0 {
					ev = pmu.LLCMisses // filtered out
				}
				set.Samples = append(set.Samples, pmu.Sample{TSC: at, IP: ip, Core: int32(core), Event: ev})
			}
			tsc = begin + span
			switch rng.Intn(10) {
			case 0: // unclosed / reopened: next Begin force-closes this item
			case 1: // orphan End with a bogus ID
				set.Markers = append(set.Markers, trace.Marker{Item: id + 100000, TSC: tsc, Core: int32(core), Kind: trace.ItemEnd})
			default:
				set.Markers = append(set.Markers, trace.Marker{Item: id, TSC: tsc, Core: int32(core), Kind: trace.ItemEnd})
			}
			id++
			tsc += uint64(rng.Intn(300)) // inter-item gap (may be zero)
		}
	}
	rng.Shuffle(len(set.Markers), func(i, j int) {
		set.Markers[i], set.Markers[j] = set.Markers[j], set.Markers[i]
	})
	rng.Shuffle(len(set.Samples), func(i, j int) {
		set.Samples[i], set.Samples[j] = set.Samples[j], set.Samples[i]
	})
	return set
}

// TestParallelIntegrateEquivalence: for every seed and every parallelism
// level, Integrate must produce output identical to the sequential path —
// items, spans, diagnostics (including the deterministic symbol-cache
// counters), and mean sample gaps.
func TestParallelIntegrateEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		set := randomTraceSet(rand.New(rand.NewSource(seed)))
		seq, err := Integrate(set, Options{Parallelism: 1})
		if err != nil {
			t.Fatalf("seed %d: sequential: %v", seed, err)
		}
		for _, p := range []int{0, 2, 3, 8} {
			par, err := Integrate(set, Options{Parallelism: p})
			if err != nil {
				t.Fatalf("seed %d p=%d: %v", seed, p, err)
			}
			if !reflect.DeepEqual(seq.Items, par.Items) {
				t.Fatalf("seed %d p=%d: items differ\nseq %+v\npar %+v", seed, p, seq.Items, par.Items)
			}
			if seq.Diag != par.Diag {
				t.Errorf("seed %d p=%d: diagnostics differ\nseq %+v\npar %+v", seed, p, seq.Diag, par.Diag)
			}
			if !reflect.DeepEqual(seq.MeanSampleGap, par.MeanSampleGap) {
				t.Errorf("seed %d p=%d: mean gaps differ: %v vs %v", seed, p, seq.MeanSampleGap, par.MeanSampleGap)
			}
		}
	}
}

// TestParallelIntegrateIdempotent: integrating the same set twice must give
// the same answer — the pipeline may sort private copies but must not
// mutate the input set or depend on warm symbol caches.
func TestParallelIntegrateIdempotent(t *testing.T) {
	set := randomTraceSet(rand.New(rand.NewSource(7)))
	wantMarkers := append([]trace.Marker(nil), set.Markers...)
	wantSamples := append([]pmu.Sample(nil), set.Samples...)
	first, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Items, second.Items) || first.Diag != second.Diag {
		t.Error("re-integration of the same set produced a different analysis")
	}
	if !reflect.DeepEqual(set.Markers, wantMarkers) || !reflect.DeepEqual(set.Samples, wantSamples) {
		t.Error("Integrate mutated the input trace set")
	}
}

// TestParallelIntegrateGroundTruth runs the simulator-backed fixture through
// every parallelism level and checks the per-function estimates stay
// bit-identical to the sequential reconstruction.
func TestParallelIntegrateGroundTruth(t *testing.T) {
	set, _ := runGroundTruth(t, 900, 40, 12000, 18000)
	seq, err := Integrate(set, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4} {
		par, err := Integrate(set, Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq.Items, par.Items) {
			t.Fatalf("p=%d: ground-truth items differ", p)
		}
		if seq.Diag != par.Diag {
			t.Fatalf("p=%d: diagnostics differ: %+v vs %+v", p, seq.Diag, par.Diag)
		}
	}
	if seq.Diag.SymCacheHits == 0 {
		t.Error("expected symbol-cache hits on a sampled workload")
	}
	if seq.Diag.SymCacheHits+seq.Diag.SymCacheMisses == 0 {
		t.Error("cache counters not populated")
	}
}

// TestIntegrateSkipsSortOfSortedInput: shardByCore skips its sorts when a
// stream is already in order, which is only sound because a stable sort of
// sorted input is the identity. A sorted set and a reordered copy of it
// must integrate to identical analyses, and a simulator run's set must
// arrive sorted, so the skip is the path real runs take.
func TestIntegrateSkipsSortOfSortedInput(t *testing.T) {
	sampleOrder := func(a, b pmu.Sample) int {
		if c := cmp.Compare(a.Core, b.Core); c != 0 {
			return c
		}
		return cmp.Compare(a.TSC, b.TSC)
	}
	for seed := int64(0); seed < 25; seed++ {
		reordered := randomTraceSet(rand.New(rand.NewSource(seed)))
		sorted := *reordered
		sorted.Markers = slices.Clone(reordered.Markers)
		sorted.Samples = slices.Clone(reordered.Samples)
		slices.SortStableFunc(sorted.Markers, trace.MarkerOrder)
		slices.SortStableFunc(sorted.Samples, sampleOrder)
		want, err := Integrate(reordered, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Integrate(&sorted, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: sorted input integrates differently\nsorted    %+v\nreordered %+v", seed, got, want)
		}
	}

	set, _ := runGroundTruth(t, 700, 15, 10000, 12000)
	if !slices.IsSortedFunc(set.Markers, trace.MarkerOrder) || !slices.IsSortedFunc(set.Samples, sampleOrder) {
		t.Fatal("a simulator run's trace set is not in (core, TSC) order")
	}
	reversed := *set
	reversed.Markers = slices.Clone(set.Markers)
	reversed.Samples = slices.Clone(set.Samples)
	slices.Reverse(reversed.Markers)
	slices.Reverse(reversed.Samples)
	want, err := Integrate(&reversed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a run's sorted set and its reversed copy integrate differently")
	}
}
