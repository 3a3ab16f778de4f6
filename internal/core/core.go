// Package core implements the paper's primary contribution: integrating the
// two trace streams of the hybrid approach — coarse-grained instrumentation
// markers and hardware (PEBS) samples — into per-data-item, per-function
// elapsed-time estimates (§III-D), plus the analyses built on top of them:
// averaged profiles (§V-B1), per-item hardware-event counts (§V-D),
// fluctuation detection and online divergence-triggered dumping (§IV-C3),
// and the register-tagged integration path for timer-switching
// architectures (§V-A).
package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// FuncSpan is the estimate for one function within one data-item: the
// samples whose IP resolved into the function while the item was on core.
// Per §III-D step 3, the elapsed-time estimate is the difference between the
// timestamps of the first and the last such sample.
type FuncSpan struct {
	// Fn is the resolved function.
	Fn *symtab.Fn
	// Samples is the number of PEBS samples mapped to {Fn, item}.
	Samples int
	// FirstTSC and LastTSC are the timestamps of the first and last mapped
	// samples, in cycles.
	FirstTSC, LastTSC uint64
}

// Cycles returns the first-to-last estimate in cycles. With fewer than two
// samples it returns 0: "the number of samples that belong to such functions
// is at most one and we cannot estimate the elapsed time" (§V-B1).
func (f FuncSpan) Cycles() uint64 {
	if f.Samples < 2 {
		return 0
	}
	return f.LastTSC - f.FirstTSC
}

// Estimable reports whether the span carries enough samples to estimate.
func (f FuncSpan) Estimable() bool { return f.Samples >= 2 }

// CyclesByGap returns the alternative count×mean-gap estimator used by the
// ablation benchmarks: Samples multiplied by the core's mean inter-sample
// gap. Unlike Cycles it produces a value even for single-sample spans, at
// the price of assuming a uniform event rate.
func (f FuncSpan) CyclesByGap(meanGap float64) float64 {
	return float64(f.Samples) * meanGap
}

// Item is one data-item's reconstruction: its on-core interval from the
// markers and its per-function breakdown from the samples.
type Item struct {
	// ID is the data-item ID recorded by the marking function.
	ID uint64
	// Core is the core the item was processed on.
	Core int32
	// BeginTSC/EndTSC are the marker timestamps delimiting the item.
	BeginTSC, EndTSC uint64
	// Funcs holds per-function spans ordered by first appearance.
	Funcs []FuncSpan
	// SampleCount is the number of samples mapped to this item (including
	// samples whose IP resolved to no known function).
	SampleCount int
	// UnresolvedSamples counts this item's samples that hit unsymbolized
	// code.
	UnresolvedSamples int
	// Confidence grades how trustworthy this reconstruction is on [0, 1].
	// 1.0 means a cleanly paired marker interval with sample coverage
	// consistent with the core's sampling rate. Degraded traces lower it:
	// an item force-closed by a reopen (its End marker was lost) is halved;
	// an item whose interval should have held ≥ 4 samples at the core's
	// mean sample gap but holds under half of them is scaled by the
	// coverage shortfall (a PEBS loss burst ate its evidence); an item
	// flushed unclosed at stream end (StreamIntegrator.Close) carries 0.25.
	// The score is a deterministic function of the trace, identical across
	// runs and parallelism levels.
	Confidence float64

	// funcIndex is a lazily built name→Funcs-index lookup, populated by
	// Func once an item carries enough functions that repeated linear
	// scans would dominate (report and compare paths query by name per
	// function per item). Copies of an Item share the map; it is rebuilt
	// if Funcs changed size since it was built.
	funcIndex map[string]int32
}

// ElapsedCycles returns the item's total on-core time per the markers.
func (it *Item) ElapsedCycles() uint64 { return it.EndTSC - it.BeginTSC }

// funcIndexMin is the span count above which Func switches from a linear
// scan to the lazily built name index. Below it, the scan wins on both
// time and the avoided map allocation.
const funcIndexMin = 8

// Func returns the span for the named function, or a zero FuncSpan when the
// item has no samples in it. For items with many functions a name→index
// lookup is built lazily on first use; function names are unique within an
// item because spans are deduplicated by symbol.
func (it *Item) Func(name string) FuncSpan {
	if len(it.Funcs) >= funcIndexMin {
		if len(it.funcIndex) != len(it.Funcs) {
			idx := make(map[string]int32, len(it.Funcs))
			for i := range it.Funcs {
				idx[it.Funcs[i].Fn.Name] = int32(i)
			}
			it.funcIndex = idx
		}
		if i, ok := it.funcIndex[name]; ok {
			return it.Funcs[i]
		}
		return FuncSpan{}
	}
	for _, f := range it.Funcs {
		if f.Fn.Name == name {
			return f
		}
	}
	return FuncSpan{}
}

// Diagnostics reports everything the integrator could not cleanly account
// for. Real traces are imperfect — markers can be lost to crashed helpers
// and samples can land between items — so the analyzer surfaces rather than
// hides these conditions.
type Diagnostics struct {
	// UnattributedSamples fell outside every item interval on their core
	// (taken during queue work, idle spin, or between items).
	UnattributedSamples int
	// UnresolvedSamples landed inside an item but their IP matched no
	// symbol.
	UnresolvedSamples int
	// OrphanEndMarkers are ItemEnd markers with no matching open ItemBegin.
	OrphanEndMarkers int
	// ReopenedItems are ItemBegin markers that arrived while another item
	// was still open on the core (the previous item is closed at the new
	// begin and counted here).
	ReopenedItems int
	// UnclosedItems are ItemBegin markers never followed by an ItemEnd.
	// The offline integrator drops such items because their interval is
	// unbounded; StreamIntegrator.Close flushes them as low-confidence.
	UnclosedItems int
	// RepairedMarkers counts obviously duplicated markers the integrator
	// repaired away instead of misinterpreting: an ItemBegin for the item
	// already open on its core (a doubled log write — honoring it would
	// fake a reopen) and an ItemEnd for the item most recently closed on
	// its core (honoring it would count an orphan). Repair restores full
	// fidelity, so it does not lower Confidence; the count surfaces that
	// the marker stream was degraded.
	RepairedMarkers int
	// IgnoredEventSamples had a different hardware event than the one
	// being integrated.
	IgnoredEventSamples int
	// SymCacheHits and SymCacheMisses count symbol-resolution cache hits
	// and misses during this pass. Integration resolves through a private
	// per-core-shard cache (see symtab.Resolver), so these counts are
	// deterministic and identical between sequential and parallel runs.
	SymCacheHits, SymCacheMisses int
}

// String renders the diagnostics on one line with a stable field order
// (declaration order above). The format is part of the CLI/log surface
// and byte-pinned by a golden test — reordering or renaming a field here
// is a deliberate, visible change, never an accident of refactoring.
func (d Diagnostics) String() string {
	return fmt.Sprintf(
		"diag: unattributed=%d unresolved=%d orphan_ends=%d reopened=%d unclosed=%d repaired=%d ignored_event=%d symcache=%d/%d",
		d.UnattributedSamples, d.UnresolvedSamples, d.OrphanEndMarkers,
		d.ReopenedItems, d.UnclosedItems, d.RepairedMarkers,
		d.IgnoredEventSamples, d.SymCacheHits, d.SymCacheMisses)
}

// merge accumulates another pass's counters into d (used when folding
// per-core partial diagnostics into the final Analysis).
func (d *Diagnostics) merge(o Diagnostics) {
	d.UnattributedSamples += o.UnattributedSamples
	d.UnresolvedSamples += o.UnresolvedSamples
	d.OrphanEndMarkers += o.OrphanEndMarkers
	d.ReopenedItems += o.ReopenedItems
	d.UnclosedItems += o.UnclosedItems
	d.RepairedMarkers += o.RepairedMarkers
	d.IgnoredEventSamples += o.IgnoredEventSamples
	d.SymCacheHits += o.SymCacheHits
	d.SymCacheMisses += o.SymCacheMisses
}

// Analysis is the result of one integration pass.
type Analysis struct {
	// FreqHz is the TSC frequency, for time conversion.
	FreqHz uint64
	// Items holds every reconstructed data-item, ordered by BeginTSC.
	Items []Item
	// Diag carries the integration diagnostics.
	Diag Diagnostics
	// MeanSampleGap maps core → mean inter-sample distance in cycles
	// (input to the ablation estimator and to §V-C's interval/reset-value
	// linearity analysis).
	MeanSampleGap map[int32]float64
}

// CyclesToMicros converts cycles on the analyzed machine to microseconds.
func (a *Analysis) CyclesToMicros(cy uint64) float64 {
	return float64(cy) * 1e6 / float64(a.FreqHz)
}

// Item returns the reconstruction of the data-item with the given ID, or
// nil when the trace contains none (IDs are expected unique; with duplicate
// IDs the first occurrence wins).
func (a *Analysis) Item(id uint64) *Item {
	for i := range a.Items {
		if a.Items[i].ID == id {
			return &a.Items[i]
		}
	}
	return nil
}

// Options tunes an integration pass.
type Options struct {
	// Event selects which hardware event's samples to integrate; samples
	// of other events are ignored (the PMU may run several counters). The
	// zero value is UopsRetired, the paper's workhorse event.
	Event pmu.Event
	// ExcludeBoundaries applies the paper's strict inequality t0 < ta < t1:
	// a sample whose TSC equals its item's Begin or End timestamp is left
	// unattributed. By default (false) such samples attribute to the item;
	// ties are measure-zero on real hardware, but the discrete simulator
	// can produce them.
	ExcludeBoundaries bool
	// Parallelism caps the number of worker goroutines Integrate fans
	// per-core shards over. 0 selects GOMAXPROCS; 1 forces the sequential
	// path. The result is identical for every value — each core is
	// integrated independently and the merge is deterministic — so the
	// knob trades wall-clock for scheduler load only.
	Parallelism int
}

// Integrate performs the paper's integration step (§III-D step 2): each
// sample's timestamp is located within the marker-delimited item intervals
// of its core, its IP is resolved against the symbol table, and per-item
// per-function spans are accumulated. It returns an error only for traces
// that cannot be interpreted at all (nil set or missing symbol table);
// recoverable imperfections go to Diagnostics.
//
// Markers and samples are already partitioned by core — each core's pinned
// thread produced its own streams — so integration shards per core:
// marker pairing and sample binning for one core never look at another
// core's data. Opts.Parallelism fans the shards over worker goroutines;
// the merge is deterministic, so the output is identical for every
// parallelism level (see shard.go).
func Integrate(set *trace.Set, opts Options) (*Analysis, error) {
	if set == nil {
		return nil, fmt.Errorf("core: nil trace set")
	}
	if set.Syms == nil {
		return nil, fmt.Errorf("core: trace set has no symbol table")
	}
	if set.FreqHz == 0 {
		return nil, fmt.Errorf("core: trace set has zero TSC frequency")
	}
	// Self-telemetry: one span for the whole pass, one publish at the
	// end. With telemetry off (nil default registry, no tracer) this adds
	// two atomic loads per Integrate call — nothing per marker or sample.
	sp := obs.StartSpan("core.Integrate")
	reg := obs.Default()
	var t0 time.Time
	if reg != nil {
		t0 = time.Now()
	}
	a := &Analysis{FreqHz: set.FreqHz, MeanSampleGap: map[int32]float64{}}

	shards := shardByCore(set, opts, &a.Diag)
	results, items := integrateShards(shards, set.Syms, opts)

	ends, end := make([]int, len(results)), 0
	for i := range results {
		r := &results[i]
		end += len(r.items)
		ends[i] = end
		a.Diag.merge(r.diag)
		if r.hasGap {
			a.MeanSampleGap[r.core] = r.meanGap
		}
	}
	mergeItems(items, ends)
	a.Items = items
	if reg != nil {
		publishIntegrate(reg, a, results, time.Since(t0))
	}
	sp.End()
	return a, nil
}

// SortItems orders items the way Integrate returns them: by BeginTSC, then
// by core, keeping the given order among equals.
func SortItems(items []Item) {
	slices.SortStableFunc(items, compareItems)
}

func compareItems(x, y Item) int {
	if x.BeginTSC != y.BeginTSC {
		return cmp.Compare(x.BeginTSC, y.BeginTSC)
	}
	return cmp.Compare(x.Core, y.Core)
}

// mergeItems puts items, the shards' runs back to back (run i ends at
// ends[i]), into SortItems order in place. Each run is normally sorted, as
// a shard's items close in begin order, and a k-way merge taking the
// earliest run on equal keys gives what a stable sort gives; its order is
// applied along the cycles of a permutation, 4 bytes an item, not into a
// second Item array. Should any run be out of order, it sorts instead.
func mergeItems(items []Item, ends []int) {
	next := make([]int, len(ends)) // run i's unmerged items are [next[i], ends[i])
	for i := range ends {
		if i > 0 {
			next[i] = ends[i-1]
		}
		if !slices.IsSortedFunc(items[next[i]:ends[i]], compareItems) {
			SortItems(items)
			return
		}
	}
	from := make([]int32, len(items)) // the index of the item that belongs at each slot
	for d := range from {
		best := -1
		for i := range next {
			if next[i] < ends[i] && (best < 0 || compareItems(items[next[i]], items[next[best]]) < 0) {
				best = i
			}
		}
		from[d] = int32(next[best])
		next[best]++
	}
	// A slot once filled points at itself, so each cycle is walked once.
	for start := range from {
		held, d := items[start], start
		for s := int(from[d]); s != start; s = int(from[d]) {
			items[d], from[d], d = items[s], int32(d), s
		}
		items[d], from[d] = held, int32(d)
	}
}

// Confidence penalty factors and coverage thresholds (see Item.Confidence).
const (
	confReopened = 0.5  // End marker lost; interval closed at the next Begin
	confUnclosed = 0.25 // Begin never matched; interval closed at stream end
	// confCoverageMinExpected is the minimum expected sample count (at the
	// core's mean gap) before coverage is judged at all — short items
	// legitimately carry few samples.
	confCoverageMinExpected = 4.0
	// confCoverageFloor is the fraction of expected samples below which
	// coverage starts scaling confidence down. Clean traces sit near 1.0
	// expected coverage; only burst loss pushes an item under half.
	confCoverageFloor = 0.5
)

func attachSample(b *Item, fn *symtab.Fn, tsc uint64) {
	for i := range b.Funcs {
		if b.Funcs[i].Fn == fn {
			f := &b.Funcs[i]
			f.Samples++
			if tsc < f.FirstTSC {
				f.FirstTSC = tsc
			}
			if tsc > f.LastTSC {
				f.LastTSC = tsc
			}
			return
		}
	}
	b.Funcs = append(b.Funcs, FuncSpan{Fn: fn, Samples: 1, FirstTSC: tsc, LastTSC: tsc})
}
