package core

import (
	"runtime"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/pmu"
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
// with End before Begin at equal instants, samples of the integrated event
// sorted by TSC. Both may alias the caller's set and are only read.
type shard struct {
	core    int32
	markers []trace.Marker
	samples []pmu.Sample
}

// coreResult is one shard's integration output. diag holds only this
// shard's counts; the merge sums them. closed and keep are countCore's.
type coreResult struct {
	core         int32
	items        []Item
	closed, keep int
	diag         Diagnostics
	meanGap      float64
	hasGap       bool
}

// shardByCore groups the trace's markers and samples into per-core shards,
// sorted by core. Samples of other hardware events are dropped here and
// counted into diag, so shard workers never see them. The input set is
// never written.
//
// A stable sort of sorted input is the identity, so a stream already in
// (core, TSC) order — as MarkerLog.Markers, pmu.MergeSamples and Decode
// hand a run's streams over — is cut into shards in place. Only a
// reordered or skewed stream, or a sample stream holding another event,
// is copied once: filtered, then stable-sorted.
func shardByCore(set *trace.Set, opts Options, diag *Diagnostics) []shard {
	ms := set.Markers
	if !slices.IsSortedFunc(ms, trace.MarkerOrder) {
		ms = slices.Clone(ms)
		slices.SortStableFunc(ms, trace.MarkerOrder)
	}

	ss := set.Samples
	if !slices.IsSortedFunc(ss, trace.SampleOrder) ||
		slices.ContainsFunc(ss, func(s pmu.Sample) bool { return s.Event != opts.Event }) {
		ss = make([]pmu.Sample, 0, len(set.Samples))
		for i := range set.Samples {
			if set.Samples[i].Event != opts.Event {
				diag.IgnoredEventSamples++
				continue
			}
			ss = append(ss, set.Samples[i])
		}
		if !slices.IsSortedFunc(ss, trace.SampleOrder) {
			slices.SortStableFunc(ss, trace.SampleOrder)
		}
	}

	// Both slices are now core-major; walk them in lockstep cutting one
	// shard per distinct core present in either stream.
	var shards []shard
	mi, si := 0, 0
	for mi < len(ms) || si < len(ss) {
		var core int32
		switch {
		case mi >= len(ms):
			core = ss[si].Core
		case si >= len(ss):
			core = ms[mi].Core
		default:
			core = min(ms[mi].Core, ss[si].Core)
		}
		sh := shard{core: core}
		m0 := mi
		for mi < len(ms) && ms[mi].Core == core {
			mi++
		}
		sh.markers = ms[m0:mi]
		s0 := si
		for si < len(ss) && ss[si].Core == core {
			si++
		}
		sh.samples = ss[s0:si]
		shards = append(shards, sh)
	}
	return shards
}

// integrateShards returns the per-shard results and one item array sized
// by countCore, which integrateCore fills shard by shard, back to back,
// fanning out over opts.Parallelism workers (0 = GOMAXPROCS). Results land
// in per-shard slots, so no ordering is imposed by worker scheduling.
func integrateShards(shards []shard, syms *symtab.Table, opts Options) ([]coreResult, []Item) {
	results := make([]coreResult, len(shards))
	total := 0
	for i := range shards {
		results[i] = countCore(shards[i])
		total += results[i].closed
	}
	items := make([]Item, total)
	for i, lo := 0, 0; i < len(results); i++ {
		results[i].items = items[lo : lo : lo+results[i].closed]
		lo += results[i].closed
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		for i := range shards {
			integrateCore(shards[i], &results[i], syms, opts)
		}
		return results, items
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(shards); i += workers {
				integrateCore(shards[i], &results[i], syms, opts)
			}
		}(w)
	}
	wg.Wait()
	return results, items
}

// countCore is a shard's markers-only pass: it counts the items that
// close and the opens whose samples are attributed, which excludes the
// item still open after the last marker (no End bounds it; it is dropped).
func countCore(sh shard) coreResult {
	r := coreResult{core: sh.core}
	if n := len(sh.samples); n >= 2 {
		r.meanGap = float64(sh.samples[n-1].TSC-sh.samples[0].TSC) / float64(n-1)
		r.hasGap = true
	}
	var (
		p     pairing
		scrap Diagnostics
		b     batchSink
	)
	for _, m := range sh.markers {
		p.marker(m, &scrap, &b)
	}
	r.closed, r.keep = b.closed, b.opened
	if p.cur != nil {
		r.keep--
	}
	return r
}

// integrateCore integrates one core's shard into r's window of the item
// array by driving a pairing over its markers and samples merged in time
// order, resolving IPs through a private symtab.Resolver whose
// deterministic hit/miss counts feed the shard diagnostics.
//
// At equal timestamps a sample goes before the markers while an item is
// open, so a sample on an End's cycle counts in the item that End closes;
// with ExcludeBoundaries markers always go first, so no boundary sample
// counts. The samples of the item left open at the end are never
// attributed, so never resolved.
func integrateCore(sh shard, r *coreResult, syms *symtab.Table, opts Options) {
	// One span per shard on the core's own track, so the trace viewer
	// shows the fan-out as parallel lanes; an atomic load when tracing
	// is off.
	sp := obs.StartSpanOn(int64(sh.core), "core.integrateShard")
	defer sp.End()
	var p pairing
	b := batchSink{meanGap: r.meanGap, hasGap: r.hasGap, items: r.items}
	// A span holds at least one sample, so a shard with fewer samples than
	// a full chunk gets a chunk of its sample count.
	b.chunkLen = min(spanChunk, len(sh.samples))
	res := syms.NewResolver()
	si := 0
	for _, m := range sh.markers {
		for ; si < len(sh.samples) && b.opened <= r.keep; si++ {
			s := &sh.samples[si]
			if s.TSC > m.TSC || s.TSC == m.TSC && (p.cur == nil || opts.ExcludeBoundaries) {
				break
			}
			p.sample(s.TSC, s.IP, res, opts.ExcludeBoundaries, &r.diag)
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
}

// batchSink is integrateCore's item storage: closed items in close order,
// which is begin order, each graded for sample coverage as it closes. With
// items nil (countCore's markers-only pass) it only counts.
//
// The open item's spans grow in one scratch buffer reused from item to
// item; done copies a closed item's spans into the shard's current span
// chunk and keeps a full-capacity view of them, so an item's Funcs is
// allocated with its chunk, never grown, and an append to it cannot reach
// a neighbour's spans.
type batchSink struct {
	open           Item
	opened, closed int
	items          []Item
	meanGap        float64
	hasGap         bool
	chunk          []FuncSpan // the rest of the current span chunk
	chunkLen       int        // the span count of a new chunk
}

// spanChunk is the span count of a full chunk (64 KiB). A shard allocates
// its spans in about spans/spanChunk chunks, whatever its item count.
const spanChunk = 2048

func (b *batchSink) take() *Item {
	b.opened++
	b.open = Item{Funcs: b.open.Funcs[:0]}
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
	closed := *it
	closed.Funcs = nil
	if n := len(it.Funcs); n > 0 {
		if len(b.chunk) < n {
			b.chunk = make([]FuncSpan, max(n, b.chunkLen))
		}
		closed.Funcs = b.chunk[:n:n]
		copy(closed.Funcs, it.Funcs)
		b.chunk = b.chunk[n:]
	}
	b.items = append(b.items, closed)
}
