package trace_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/pmu"
	"repro/internal/trace"
)

// oracleGapSummary is the whole-set GapSummary as it stood before GapScan
// replaced its body, kept verbatim as the reference the scan must equal.
func oracleGapSummary(s *trace.Set, ev pmu.Event) trace.Gaps {
	perCore := map[int32]*trace.CoreGaps{}
	coreOf := func(id int32) *trace.CoreGaps {
		c := perCore[id]
		if c == nil {
			c = &trace.CoreGaps{Core: id}
			perCore[id] = c
		}
		return c
	}

	for _, m := range s.Markers {
		c := coreOf(m.Core)
		if m.Kind == trace.ItemBegin {
			c.BeginMarkers++
		} else {
			c.EndMarkers++
		}
	}

	tscs := map[int32][]uint64{}
	for i := range s.Samples {
		sm := &s.Samples[i]
		c := coreOf(sm.Core) // the core is present even if its samples are filtered
		if sm.Event != ev {
			continue
		}
		c.Samples++
		tscs[sm.Core] = append(tscs[sm.Core], sm.TSC)
	}
	for id, ts := range tscs {
		c := perCore[id]
		if len(ts) < 2 {
			continue
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		c.MeanGapCycles = float64(ts[len(ts)-1]-ts[0]) / float64(len(ts)-1)
		threshold := trace.GapBurstFactor * c.MeanGapCycles
		for i := 1; i < len(ts); i++ {
			gap := ts[i] - ts[i-1]
			if gap > c.MaxGapCycles {
				c.MaxGapCycles = gap
			}
			if c.MeanGapCycles > 0 && float64(gap) > threshold {
				c.SuspectBursts++
				c.EstLostSamples += int(float64(gap)/c.MeanGapCycles) - 1
			}
		}
	}

	ids := make([]int32, 0, len(perCore))
	for id := range perCore {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := trace.Gaps{PerCore: make([]trace.CoreGaps, 0, len(ids))}
	for _, id := range ids {
		out.PerCore = append(out.PerCore, *perCore[id])
	}
	return out
}

// TestGapScanMatchesSummary: the streaming scan, fed records in any order
// and reused across sets, equals the whole-set oracle — on the golden
// fixtures, on shuffled record order, on perturbed sets, and on a set with
// a core whose samples are all of another event.
func TestGapScanMatchesSummary(t *testing.T) {
	sets := map[string]*trace.Set{"empty": {FreqHz: 1}}
	for _, name := range []string{"clean", "loss10", "markerdrop"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name+".fltrc"))
		if err != nil {
			t.Fatal(err)
		}
		set, err := trace.Decode(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sets[name] = set
	}
	clean := sets["clean"]
	for name, plan := range map[string]faults.Plan{
		"burstloss": {Seed: 3, SampleLossRate: 0.2, BurstLen: 16},
		"markers":   {Seed: 4, MarkerDropRate: 0.1, MarkerDupRate: 0.1},
		"skew":      {Seed: 5, SkewCycles: 5000, ReorderWindow: 8},
		"truncated": {Seed: 6, TruncateFraction: 0.6, SampleLossRate: 0.1},
	} {
		sets[name], _ = faults.Perturb(clean, plan)
	}
	rng := rand.New(rand.NewSource(1))
	shuffled := &trace.Set{FreqHz: clean.FreqHz, Syms: clean.Syms,
		Markers: append([]trace.Marker(nil), clean.Markers...),
		Samples: append([]pmu.Sample(nil), clean.Samples...)}
	rng.Shuffle(len(shuffled.Markers), reflect.Swapper(shuffled.Markers))
	rng.Shuffle(len(shuffled.Samples), reflect.Swapper(shuffled.Samples))
	sets["shuffled"] = shuffled
	other := &trace.Set{FreqHz: clean.FreqHz, Syms: clean.Syms, Markers: clean.Markers,
		Samples: append([]pmu.Sample(nil), clean.Samples...)}
	for i := range other.Samples {
		if other.Samples[i].Core == 1 {
			other.Samples[i].Event = pmu.LLCMisses
		}
	}
	other.Samples = append(other.Samples, pmu.Sample{TSC: 7, Core: 9, Event: pmu.LLCMisses}) // a core with nothing else
	sets["otherevent"] = other

	var reused trace.GapScan // one scan across every set and event, the way a collector source holds it
	for name, set := range sets {
		for _, ev := range []pmu.Event{pmu.UopsRetired, pmu.LLCMisses} {
			want := oracleGapSummary(set, ev)
			if got := set.GapSummary(ev); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: Set.GapSummary\n got %+v\nwant %+v", name, ev, got, want)
			}
			// Interleave the two streams, as a wire feed does.
			reused.Reset(ev)
			mi, si := 0, 0
			for mi < len(set.Markers) || si < len(set.Samples) {
				if mi < len(set.Markers) && (si >= len(set.Samples) || rng.Intn(2) == 0) {
					reused.Marker(set.Markers[mi])
					mi++
				} else {
					reused.Sample(&set.Samples[si])
					si++
				}
			}
			if got := reused.Summary(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: reused scan\n got %+v\nwant %+v", name, ev, got, want)
			}
			if reused.Markers() != len(set.Markers) || reused.Samples() != len(set.Samples) {
				t.Errorf("%s/%s: scan counted %d markers %d samples, fed %d and %d",
					name, ev, reused.Markers(), reused.Samples(), len(set.Markers), len(set.Samples))
			}
			if got := reused.Summary(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: a second Summary differs: %+v", name, ev, got)
			}
		}
	}
	if degraded := oracleGapSummary(sets["loss10"], pmu.UopsRetired).Degraded(); !degraded {
		t.Error("the loss fixture should read degraded, or this test compares nothing interesting")
	}
}
