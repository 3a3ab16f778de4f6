package core

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/pmu"
	"repro/internal/trace"
)

// setHash is the SHA-256 of the set's encoding: every field of every
// record, in set order.
func setHash(t *testing.T, set *trace.Set) [32]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// sortedFiltered is the set with its markers stable-sorted by
// trace.MarkerOrder and its samples filtered to ev and stable-sorted by
// (core, TSC), built independently of shardByCore; it also returns how
// many samples the filter dropped.
func sortedFiltered(set *trace.Set, ev pmu.Event) (*trace.Set, int) {
	out := *set
	out.Markers = slices.Clone(set.Markers)
	slices.SortStableFunc(out.Markers, trace.MarkerOrder)
	out.Samples = nil
	for _, s := range set.Samples {
		if s.Event == ev {
			out.Samples = append(out.Samples, s)
		}
	}
	sort.SliceStable(out.Samples, func(i, j int) bool {
		a, b := out.Samples[i], out.Samples[j]
		return a.Core < b.Core || a.Core == b.Core && a.TSC < b.TSC
	})
	return &out, len(set.Samples) - len(out.Samples)
}

// TestShardInPlace: a set whose streams are each in (core, TSC) order and
// hold only the integrated event — the way a simulator run, and Decode of
// its dump, hand it over — is cut into shards that alias it: no marker or
// sample is copied, and the only allocation is the shard list.
func TestShardInPlace(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		set, _ := sortedFiltered(randomTraceSet(rand.New(rand.NewSource(seed))), pmu.UopsRetired)
		var d Diagnostics
		shards := shardByCore(set, Options{}, &d)
		mo, so := 0, 0
		for _, sh := range shards {
			if len(sh.markers) > 0 && &sh.markers[0] != &set.Markers[mo] ||
				len(sh.samples) > 0 && &sh.samples[0] != &set.Samples[so] {
				t.Fatalf("seed %d: core %d's shard is a copy, not a slice of the set", seed, sh.core)
			}
			mo += len(sh.markers)
			so += len(sh.samples)
		}
		if mo != len(set.Markers) || so != len(set.Samples) || d.IgnoredEventSamples != 0 {
			t.Fatalf("seed %d: shards hold %d markers and %d samples of %d and %d", seed, mo, so, len(set.Markers), len(set.Samples))
		}
		if allocs := testing.AllocsPerRun(10, func() { shardByCore(set, Options{}, &d) }); allocs > float64(len(shards)) {
			t.Errorf("seed %d: shardByCore made %.0f allocations for %d shards", seed, allocs, len(shards))
		}
	}
}

// TestIntegrateLeavesInputUntouched: a set with both streams shuffled, and
// an in-order set whose samples include another event, take the copying
// path. Integrate must leave each byte-identical to what it was given, and
// the result must equal the reference pass over a sorted, filtered copy
// built by the test.
func TestIntegrateLeavesInputUntouched(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		shuffled := randomTraceSet(rand.New(rand.NewSource(seed)))
		mixed := *shuffled
		mixed.Markers = slices.Clone(shuffled.Markers)
		mixed.Samples = slices.Clone(shuffled.Samples)
		slices.SortStableFunc(mixed.Markers, trace.MarkerOrder)
		slices.SortStableFunc(mixed.Samples, trace.SampleOrder)
		for _, set := range []*trace.Set{shuffled, &mixed} {
			before := setHash(t, set)
			got, err := Integrate(set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if setHash(t, set) != before {
				t.Fatalf("seed %d: Integrate wrote to its input", seed)
			}
			oracleSet, ignored := sortedFiltered(set, pmu.UopsRetired)
			want := oracleIntegrate(oracleSet, Options{})
			want.Diag.IgnoredEventSamples = ignored
			if !reflect.DeepEqual(got.Items, want.Items) || got.Diag != want.Diag ||
				!reflect.DeepEqual(got.MeanSampleGap, want.MeanSampleGap) {
				t.Fatalf("seed %d: Integrate differs from the reference pass over a sorted copy\n got %+v\nwant %+v", seed, got.Diag, want.Diag)
			}
		}
	}
}
