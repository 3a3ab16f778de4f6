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
// 24-byte refs leaves the 32-byte records, register pointer and event
// included, where they are.
type sampleRef struct {
	tsc, ip uint64
	core    int32
}

// sampleOrder orders refs by (core, TSC).
func sampleOrder(a, b sampleRef) int {
	if c := cmp.Compare(a.core, b.core); c != 0 {
		return c
	}
	return cmp.Compare(a.tsc, b.tsc)
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
	// A stable sort of sorted input is the identity, so each sort is
	// skipped when its input is already in order: MarkerLog.Markers and
	// pmu.MergeSamples hand a run's streams over that way, and only a
	// reordered or skewed set pays for the sort.
	ms := make([]trace.Marker, len(set.Markers))
	copy(ms, set.Markers)
	if !slices.IsSortedFunc(ms, trace.MarkerOrder) {
		slices.SortStableFunc(ms, trace.MarkerOrder)
	}

	ss := make([]sampleRef, 0, len(set.Samples))
	for i := range set.Samples {
		s := &set.Samples[i]
		if s.Event != opts.Event {
			diag.IgnoredEventSamples++
			continue
		}
		ss = append(ss, sampleRef{tsc: s.TSC, ip: s.IP, core: s.Core})
	}
	if !slices.IsSortedFunc(ss, sampleOrder) {
		slices.SortStableFunc(ss, sampleOrder)
	}

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

// integrateCore integrates one core's shard by driving a pairing over its
// markers and samples merged in time order, resolving IPs through a private
// symtab.Resolver whose deterministic hit/miss counts feed the shard
// diagnostics.
//
// At equal timestamps a sample goes before the markers while an item is
// open, so a sample on an End's cycle counts in the item that End closes;
// with ExcludeBoundaries markers always go first, so no boundary sample
// counts. The item still open after the last marker has no End to bound
// it and is dropped: a markers-only pass of the same pairing finds its
// Begin first, so its samples stay unattributed and are never resolved.
func integrateCore(sh shard, syms *symtab.Table, opts Options) coreResult {
	// One span per shard on the core's own track, so the trace viewer
	// shows the fan-out as parallel lanes; an atomic load when tracing
	// is off.
	sp := obs.StartSpanOn(int64(sh.core), "core.integrateShard")
	defer sp.End()
	r := coreResult{core: sh.core}
	if n := len(sh.samples); n >= 2 {
		r.meanGap = float64(sh.samples[n-1].tsc-sh.samples[0].tsc) / float64(n-1)
		r.hasGap = true
	}

	// The markers-only pass: b counts, keeps nothing.
	var (
		p     pairing
		scrap Diagnostics
	)
	b := batchSink{meanGap: r.meanGap, hasGap: r.hasGap}
	for _, m := range sh.markers {
		p.marker(m, &scrap, &b)
	}
	keep := b.opened // opens whose samples are attributed
	if p.cur != nil {
		keep--
	}

	p, b.opened, b.items = pairing{}, 0, make([]Item, 0, b.closed)
	res := syms.NewResolver()
	si := 0
	for _, m := range sh.markers {
		for ; si < len(sh.samples) && b.opened <= keep; si++ {
			s := &sh.samples[si]
			if s.tsc > m.TSC || s.tsc == m.TSC && (p.cur == nil || opts.ExcludeBoundaries) {
				break
			}
			p.sample(s.tsc, s.ip, res, opts.ExcludeBoundaries, &r.diag)
		}
		p.marker(m, &r.diag, &b)
	}
	// What is left follows the last marker or the dropped item's Begin.
	r.diag.UnattributedSamples += len(sh.samples) - si
	p.unclosed(&r.diag)
	r.items = b.items

	hits, misses := res.Stats()
	r.diag.SymCacheHits = int(hits)
	r.diag.SymCacheMisses = int(misses)
	return r
}

// batchSink is integrateCore's item storage: closed items in close order,
// which is begin order, each graded for sample coverage as it closes. With
// items nil (the markers-only pass) it only counts.
type batchSink struct {
	open           Item
	opened, closed int
	items          []Item
	meanGap        float64
	hasGap         bool
}

func (b *batchSink) take() *Item {
	b.opened++
	b.open = Item{}
	return &b.open
}

// done scales the item's confidence when its interval should have held at
// least confCoverageMinExpected samples at the core's mean sample gap but
// holds under confCoverageFloor of them: a PEBS loss burst ate its
// evidence. It uses only shard-local inputs, so the score is identical at
// every parallelism level.
func (b *batchSink) done(it *Item) {
	if b.items == nil {
		b.closed++
		return
	}
	if b.hasGap && b.meanGap > 0 {
		expected := float64(it.ElapsedCycles()) / b.meanGap
		if expected >= confCoverageMinExpected {
			if cov := (float64(it.SampleCount) + 1) / expected; cov < confCoverageFloor {
				it.Confidence *= cov / confCoverageFloor
			}
		}
	}
	b.items = append(b.items, *it)
}
