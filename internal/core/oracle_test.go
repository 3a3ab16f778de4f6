package core

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/symtab"
	"repro/internal/trace"
)

// The reference integration pass. Integrate drives one pairing machine over
// each core's merged record stream; this is the two-pass form it replaced,
// kept here as an independent oracle: pass 1 pairs markers into intervals,
// pass 2 bins time-sorted samples into them with a cursor that only
// advances, pass 3 grades each interval. TestIntegrateMatchesReference and
// FuzzIntegrate compare Integrate against it, items and Diagnostics alike.

// oracleInterval is one paired item interval.
type oracleInterval struct {
	item       uint64
	begin, end uint64
	// reopened marks an interval force-closed at the next Begin because
	// its own End marker never arrived.
	reopened bool
}

func oracleIn(tsc uint64, iv oracleInterval, excludeBounds bool) bool {
	if excludeBounds {
		return tsc > iv.begin && tsc < iv.end
	}
	return tsc >= iv.begin && tsc <= iv.end
}

func oracleAfter(tsc uint64, iv oracleInterval, excludeBounds bool) bool {
	if excludeBounds {
		return tsc >= iv.end
	}
	return tsc > iv.end
}

// oracleConfidence is the pairing factor times the sample-coverage factor.
func oracleConfidence(reopened bool, samples int, elapsed uint64, meanGap float64, hasGap bool) float64 {
	c := 1.0
	if reopened {
		c *= confReopened
	}
	if hasGap && meanGap > 0 {
		expected := float64(elapsed) / meanGap
		if expected >= confCoverageMinExpected {
			cov := (float64(samples) + 1) / expected
			if cov < confCoverageFloor {
				c *= cov / confCoverageFloor
			}
		}
	}
	return c
}

// oracleIntegrate is Integrate computed by the reference pass, sequentially.
func oracleIntegrate(set *trace.Set, opts Options) *Analysis {
	a := &Analysis{FreqHz: set.FreqHz, MeanSampleGap: map[int32]float64{}}
	for _, sh := range shardByCore(set, opts, &a.Diag) {
		r := oracleIntegrateCore(sh, set.Syms, opts)
		a.Items = append(a.Items, r.items...)
		a.Diag.merge(r.diag)
		if r.hasGap {
			a.MeanSampleGap[r.core] = r.meanGap
		}
	}
	if a.Items == nil {
		a.Items = []Item{}
	}
	SortItems(a.Items)
	return a
}

func oracleIntegrateCore(sh shard, syms *symtab.Table, opts Options) coreResult {
	r := coreResult{core: sh.core}

	// Pass 1: pair markers into item intervals.
	ivs := make([]oracleInterval, 0, len(sh.markers)/2)
	var (
		curID      uint64
		curBegin   uint64
		curOpen    bool
		lastClosed uint64
		haveClosed bool
	)
	for _, m := range sh.markers {
		switch m.Kind {
		case trace.ItemBegin:
			if curOpen && curID == m.Item {
				r.diag.RepairedMarkers++
				continue
			}
			if curOpen {
				ivs = append(ivs, oracleInterval{item: curID, begin: curBegin, end: m.TSC, reopened: true})
				r.diag.ReopenedItems++
			}
			curID, curBegin, curOpen = m.Item, m.TSC, true
		case trace.ItemEnd:
			if !curOpen || curID != m.Item {
				if !curOpen && haveClosed && lastClosed == m.Item {
					r.diag.RepairedMarkers++
					continue
				}
				r.diag.OrphanEndMarkers++
				continue
			}
			ivs = append(ivs, oracleInterval{item: curID, begin: curBegin, end: m.TSC})
			lastClosed, haveClosed = curID, true
			curOpen = false
		}
	}
	if curOpen {
		r.diag.UnclosedItems++
	}
	slices.SortStableFunc(ivs, func(a, b oracleInterval) int { return cmp.Compare(a.begin, b.begin) })

	if n := len(sh.samples); n >= 2 {
		r.meanGap = float64(sh.samples[n-1].TSC-sh.samples[0].TSC) / float64(n-1)
		r.hasGap = true
	}
	r.items = make([]Item, len(ivs))
	for i, iv := range ivs {
		r.items[i] = Item{ID: iv.item, Core: sh.core, BeginTSC: iv.begin, EndTSC: iv.end}
	}

	// Pass 2: merged sweep of the two sorted streams.
	res := syms.NewResolver()
	k := 0
	for i := range sh.samples {
		s := &sh.samples[i]
		for k < len(ivs) && !oracleIn(s.TSC, ivs[k], opts.ExcludeBoundaries) && oracleAfter(s.TSC, ivs[k], opts.ExcludeBoundaries) {
			k++
		}
		if k >= len(ivs) || !oracleIn(s.TSC, ivs[k], opts.ExcludeBoundaries) {
			r.diag.UnattributedSamples++
			continue
		}
		b := &r.items[k]
		b.SampleCount++
		fn := res.Resolve(s.IP)
		if fn == nil {
			b.UnresolvedSamples++
			r.diag.UnresolvedSamples++
			continue
		}
		attachSample(b, fn, s.TSC)
	}
	// Pass 3: grade each reconstruction.
	for i := range r.items {
		it := &r.items[i]
		it.Confidence = oracleConfidence(ivs[i].reopened, it.SampleCount, it.ElapsedCycles(), r.meanGap, r.hasGap)
	}

	hits, misses := res.Stats()
	r.diag.SymCacheHits = int(hits)
	r.diag.SymCacheMisses = int(misses)
	return r
}

// TestIntegrateMatchesReference: on imperfect random traces and on a
// simulator trace, at both ExcludeBoundaries settings, Integrate equals the
// reference pass — items, Diagnostics and mean sample gaps.
func TestIntegrateMatchesReference(t *testing.T) {
	gt, _ := runGroundTruth(t, 900, 25, 12000, 18000)
	sets := []*trace.Set{gt}
	for seed := int64(0); seed < 25; seed++ {
		sets = append(sets, randomTraceSet(rand.New(rand.NewSource(seed))))
	}
	for i, set := range sets {
		for _, excl := range []bool{false, true} {
			opts := Options{ExcludeBoundaries: excl}
			got, err := Integrate(set, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleIntegrate(set, opts)
			if !reflect.DeepEqual(got.Items, want.Items) || got.Diag != want.Diag ||
				!reflect.DeepEqual(got.MeanSampleGap, want.MeanSampleGap) {
				t.Fatalf("set %d ExcludeBoundaries=%v: Integrate diverged from the reference pass\n got %v\nwant %v",
					i, excl, got.Diag, want.Diag)
			}
		}
	}
}
