package core

import (
	"cmp"
	"runtime"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// The sharded integration pipeline.
//
// Both raw streams are produced per core by pinned threads (§III-D), so the
// unit of parallelism is the core: one shard holds one core's time-sorted
// markers and samples, one worker turns a shard into a coreResult with no
// shared mutable state, and the merge back into a single Analysis is a
// deterministic fold over core-sorted results. Parallel output is therefore
// identical to sequential output by construction — the same per-shard
// function runs either way; only the scheduling differs.

// shard is one core's slice of the trace: markers sorted by (TSC, kind)
// with End before Begin at equal instants, samples filtered to the
// integrated event and sorted by TSC.
type shard struct {
	core    int32
	markers []trace.Marker
	samples []sampleRef
}

// sampleRef is what integration reads of a pmu.Sample: sorting and sweeping
// 24-byte refs leaves the 152-byte records where they are.
type sampleRef struct {
	tsc, ip uint64
	core    int32
}

// coreResult is one shard's integration output. diag holds only this
// shard's counts; the merge sums them.
type coreResult struct {
	core    int32
	items   []Item
	diag    Diagnostics
	meanGap float64
	hasGap  bool
}

// shardByCore groups the trace's markers and samples into per-core shards,
// sorted by core. Samples of other hardware events are dropped here and
// counted into diag, so shard workers never see them. The input set is not
// mutated.
func shardByCore(set *trace.Set, opts Options, diag *Diagnostics) []shard {
	ms := make([]trace.Marker, len(set.Markers))
	copy(ms, set.Markers)
	slices.SortStableFunc(ms, func(a, b trace.Marker) int {
		if a.Core != b.Core {
			return cmp.Compare(a.Core, b.Core)
		}
		if a.TSC != b.TSC {
			return cmp.Compare(a.TSC, b.TSC)
		}
		// An End and a Begin at the same instant: close first.
		return int(b.Kind) - int(a.Kind)
	})

	ss := make([]sampleRef, 0, len(set.Samples))
	for i := range set.Samples {
		s := &set.Samples[i]
		if s.Event != opts.Event {
			diag.IgnoredEventSamples++
			continue
		}
		ss = append(ss, sampleRef{tsc: s.TSC, ip: s.IP, core: s.Core})
	}
	slices.SortStableFunc(ss, func(a, b sampleRef) int {
		if a.core != b.core {
			return cmp.Compare(a.core, b.core)
		}
		return cmp.Compare(a.tsc, b.tsc)
	})

	// Both slices are now core-major; walk them in lockstep cutting one
	// shard per distinct core present in either stream.
	var shards []shard
	mi, si := 0, 0
	for mi < len(ms) || si < len(ss) {
		var core int32
		switch {
		case mi >= len(ms):
			core = ss[si].core
		case si >= len(ss):
			core = ms[mi].Core
		default:
			core = min(ms[mi].Core, ss[si].core)
		}
		sh := shard{core: core}
		m0 := mi
		for mi < len(ms) && ms[mi].Core == core {
			mi++
		}
		sh.markers = ms[m0:mi]
		s0 := si
		for si < len(ss) && ss[si].core == core {
			si++
		}
		sh.samples = ss[s0:si]
		shards = append(shards, sh)
	}
	return shards
}

// integrateShards runs integrateCore over every shard, fanning out over
// opts.Parallelism workers (0 = GOMAXPROCS). Results land in per-shard
// slots, so no ordering is imposed by worker scheduling.
func integrateShards(shards []shard, syms *symtab.Table, opts Options) []coreResult {
	results := make([]coreResult, len(shards))
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		for i := range shards {
			results[i] = integrateCore(shards[i], syms, opts)
		}
		return results
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(shards); i += workers {
				results[i] = integrateCore(shards[i], syms, opts)
			}
		}(w)
	}
	wg.Wait()
	return results
}

// integrateCore integrates one core's shard: pass 1 pairs markers into item
// intervals, pass 2 bins samples into the intervals with a single merged
// sweep (both streams arrive time-sorted) and resolves IPs through a
// private symtab.Resolver, whose deterministic hit/miss counts feed the
// shard diagnostics.
func integrateCore(sh shard, syms *symtab.Table, opts Options) coreResult {
	// One span per shard on the core's own track, so the trace viewer
	// shows the fan-out as parallel lanes; an atomic load when tracing
	// is off.
	sp := obs.StartSpanOn(int64(sh.core), "core.integrateShard")
	defer sp.End()
	r := coreResult{core: sh.core}

	// Pass 1: pair markers into item intervals. Degraded marker streams
	// (lost or doubled log writes) are repaired where the intent is
	// unambiguous and surfaced in the diagnostics and per-item confidence
	// everywhere else; no marker sequence is fatal.
	ivs := make([]interval, 0, len(sh.markers)/2)
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
				// A Begin for the item already open is a doubled log
				// write; honoring it would fake a reopen. Repair: drop it.
				r.diag.RepairedMarkers++
				continue
			}
			if curOpen {
				// Forced reopen: close the dangling item here so its
				// samples stay attributable up to the switch point. The
				// interval's true End was lost, so it carries the
				// reopened-confidence penalty.
				ivs = append(ivs, interval{item: curID, begin: curBegin, end: m.TSC, reopened: true})
				r.diag.ReopenedItems++
			}
			curID, curBegin, curOpen = m.Item, m.TSC, true
		case trace.ItemEnd:
			if !curOpen || curID != m.Item {
				if !curOpen && haveClosed && lastClosed == m.Item {
					// An End for the item just closed is the doubled-write
					// twin of the repair above, not an orphan.
					r.diag.RepairedMarkers++
					continue
				}
				r.diag.OrphanEndMarkers++
				continue
			}
			ivs = append(ivs, interval{item: curID, begin: curBegin, end: m.TSC})
			lastClosed, haveClosed = curID, true
			curOpen = false
		}
	}
	if curOpen {
		r.diag.UnclosedItems++
	}
	// Intervals are already begin-sorted by construction (markers were
	// time-sorted), but a forced reopen can emit a zero-length tail; sort
	// defensively.
	slices.SortStableFunc(ivs, func(a, b interval) int { return cmp.Compare(a.begin, b.begin) })

	if n := len(sh.samples); n >= 2 {
		r.meanGap = float64(sh.samples[n-1].tsc-sh.samples[0].tsc) / float64(n-1)
		r.hasGap = true
	}

	// Every interval materializes an item even with zero samples, so
	// latency-only analyses see it; build them all up front and let the
	// sweep fill in the sample-derived fields.
	r.items = make([]Item, len(ivs))
	for i, iv := range ivs {
		r.items[i] = Item{ID: iv.item, Core: sh.core, BeginTSC: iv.begin, EndTSC: iv.end}
	}

	// Pass 2: merged sweep of the two sorted streams. k only advances —
	// every sample either lands in the current interval, in a later one,
	// or nowhere.
	res := syms.NewResolver()
	k := 0
	for i := range sh.samples {
		s := &sh.samples[i]
		for k < len(ivs) && !inInterval(s.tsc, ivs[k], opts.ExcludeBoundaries) && afterInterval(s.tsc, ivs[k], opts.ExcludeBoundaries) {
			k++
		}
		if k >= len(ivs) || !inInterval(s.tsc, ivs[k], opts.ExcludeBoundaries) {
			r.diag.UnattributedSamples++
			continue
		}
		b := &r.items[k]
		b.SampleCount++
		fn := res.Resolve(s.ip)
		if fn == nil {
			b.UnresolvedSamples++
			r.diag.UnresolvedSamples++
			continue
		}
		attachSample(b, fn, s.tsc)
	}
	// Pass 3: grade each reconstruction. Runs after the sweep because the
	// coverage factor needs final sample counts; uses only per-shard data
	// so scores are identical at every parallelism level.
	for i := range r.items {
		it := &r.items[i]
		it.Confidence = itemConfidence(ivs[i].reopened, it.SampleCount, it.ElapsedCycles(), r.meanGap, r.hasGap)
	}

	hits, misses := res.Stats()
	r.diag.SymCacheHits = int(hits)
	r.diag.SymCacheMisses = int(misses)
	return r
}
