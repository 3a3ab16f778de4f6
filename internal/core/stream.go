package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// StreamIntegrator is the online counterpart of Integrate: it consumes
// markers and samples incrementally, in timestamp order per core, and emits
// each data-item's reconstruction the moment its ItemEnd marker arrives.
//
// This is the engine behind the paper's §IV-C3 proposal for taming the
// PEBS data volume: "one can estimate the elapsed time of each function
// online and dump raw samples only when the estimation diverges from the
// average by a threshold in order to analyze the phenomenon later offline."
// Pair it with an OnlineMonitor (via OnItem) and a RawRing to get exactly
// that pipeline; see the onlinemonitor example.
//
// Memory: O(open items + one item's functions + raw-ring capacity) — it
// never buffers the whole trace, which is the point.
//
// Allocation: emitted items come from a free list. A callback that is done
// with an item may hand it back via Recycle, after which the integrator
// reuses the Item and its FuncSpan backing array; a production monitor that
// recycles every item makes the hot path steady-state allocation-free
// (verified by an AllocsPerRun regression test). Callbacks that retain
// items simply never recycle them — the integrator then allocates per item,
// exactly as before.
type StreamIntegrator struct {
	// OnItem is invoked for every completed item, in completion order per
	// core. It must be set before feeding events. The *Item remains valid
	// after the callback returns unless the callback passes it to Recycle.
	OnItem func(*Item)

	syms *symtab.Table
	res  *symtab.Resolver
	opts Options

	cores map[int32]*coreStream
	diag  Diagnostics
	items int
	free  []*Item
	// closed latches after the first Close so repeated Close calls are
	// idempotent no-ops.
	closed bool
	// met holds cached self-telemetry handles (nil handles when the
	// default registry was disabled at construction — every update is
	// then a nil-check no-op).
	met streamMetrics
}

// coreStream is one core's stream: its pairing plus the ordering check.
type coreStream struct {
	pairing
	lastTSC    uint64
	outOfOrder int
}

// NewStreamIntegrator creates an online integrator resolving IPs against
// syms.
func NewStreamIntegrator(syms *symtab.Table, opts Options, onItem func(*Item)) (*StreamIntegrator, error) {
	if syms == nil {
		return nil, fmt.Errorf("core: nil symbol table")
	}
	if onItem == nil {
		return nil, fmt.Errorf("core: nil OnItem callback")
	}
	return &StreamIntegrator{
		OnItem: onItem,
		syms:   syms,
		res:    syms.NewResolver(),
		opts:   opts,
		cores:  map[int32]*coreStream{},
		met:    newStreamMetrics(obs.Default()),
	}, nil
}

// take pops a recycled Item or allocates a fresh one for an item a Begin
// opens. Returned items have zeroed fields and an empty (but possibly
// pre-grown) Funcs slice.
func (s *StreamIntegrator) take() *Item {
	s.met.open.Add(1)
	if n := len(s.free); n > 0 {
		it := s.free[n-1]
		s.free = s.free[:n-1]
		s.met.freelist.SetInt(n - 1)
		return it
	}
	s.met.allocs.Inc()
	return &Item{}
}

// Recycle hands an emitted Item back to the integrator's free list. Call it
// from (or after) the OnItem callback once the item's data is no longer
// needed; the Item and its FuncSpan array will back a future item, so the
// caller must not touch it again. Recycling is optional — unrecycled items
// are simply garbage-collected.
func (s *StreamIntegrator) Recycle(it *Item) {
	if it == nil {
		return
	}
	funcs := it.Funcs[:0]
	*it = Item{Funcs: funcs}
	s.free = append(s.free, it)
	s.met.recycled.Inc()
	s.met.freelist.SetInt(len(s.free))
}

func (s *StreamIntegrator) coreOf(id int32) *coreStream {
	cs := s.cores[id]
	if cs == nil {
		cs = &coreStream{}
		s.cores[id] = cs
	}
	return cs
}

// Marker feeds one instrumentation record. Records must arrive in
// non-decreasing timestamp order per core (the natural order a per-core
// ring buffer drains in); violations are counted, not fatal.
func (s *StreamIntegrator) Marker(m trace.Marker) {
	cs := s.coreOf(m.Core)
	if m.TSC < cs.lastTSC {
		cs.outOfOrder++
		s.met.outOfOrder.Inc()
		return
	}
	cs.lastTSC = m.TSC
	cs.marker(m, &s.diag, s)
}

// done emits an item its End or a reopen closed, or Close flushed.
func (s *StreamIntegrator) done(it *Item) {
	slices.SortStableFunc(it.Funcs, func(a, b FuncSpan) int { return cmp.Compare(a.FirstTSC, b.FirstTSC) })
	s.items++
	s.met.items.Inc()
	s.met.open.Add(-1)
	s.met.cycles.Record(it.ElapsedCycles())
	s.met.conf.Record(uint64(it.Confidence * 1000))
	s.OnItem(it)
}

// Sample feeds one hardware sample. Same per-core ordering contract as
// Marker.
func (s *StreamIntegrator) Sample(sm pmu.Sample) {
	if sm.Event != s.opts.Event {
		s.diag.IgnoredEventSamples++
		return
	}
	cs := s.coreOf(sm.Core)
	if sm.TSC < cs.lastTSC {
		cs.outOfOrder++
		s.met.outOfOrder.Inc()
		return
	}
	cs.lastTSC = sm.TSC
	cs.sample(sm.TSC, sm.IP, s.res, s.opts.ExcludeBoundaries, &s.diag)
}

// Close ends the stream. An item still open on some core — its End marker
// never arrived because the trace was truncated mid-run or the write was
// lost — is not silently dropped: it is emitted as a low-confidence
// reconstruction closed at that core's last observed timestamp, and
// counted in Diagnostics.UnclosedItems. Its samples were attributed as
// they streamed in, so a diagnostician still sees where the final,
// possibly crash-implicated item spent its time. Cores are drained in
// ascending ID order so the emission order is deterministic.
//
// Close is idempotent: the second and later calls are no-ops — nothing is
// re-emitted and the diagnostics do not change. Defer-Close-plus-explicit-
// Close is therefore safe, the shutdown idiom a long-running monitor wants.
func (s *StreamIntegrator) Close() {
	if s.closed {
		return
	}
	s.closed = true
	var cores []int32
	for id, cs := range s.cores {
		if cs.cur != nil {
			cores = append(cores, id)
		}
	}
	slices.Sort(cores)
	for _, id := range cores {
		cs := s.cores[id]
		it := cs.unclosed(&s.diag)
		it.EndTSC = cs.lastTSC
		it.Confidence *= confUnclosed
		s.done(it)
	}
}

// Diag returns the accumulated diagnostics, including per-core
// out-of-order event counts folded into one number and the symbol-cache
// hit/miss counts of the integrator's private resolver.
func (s *StreamIntegrator) Diag() Diagnostics {
	d := s.diag
	hits, misses := s.res.Stats()
	d.SymCacheHits = int(hits)
	d.SymCacheMisses = int(misses)
	return d
}

// OutOfOrder returns how many events violated the per-core ordering
// contract and were dropped.
func (s *StreamIntegrator) OutOfOrder() int {
	n := 0
	for _, cs := range s.cores {
		n += cs.outOfOrder
	}
	return n
}

// Items returns how many items have been completed so far.
func (s *StreamIntegrator) Items() int { return s.items }

// RawRing retains the most recent raw samples per core so that, when the
// online monitor flags a divergence, the surrounding raw evidence can be
// dumped for offline analysis — without ever persisting the full stream.
type RawRing struct {
	cap   int
	buf   []pmu.Sample
	next  int
	full  bool
	dumps int
}

// NewRawRing creates a ring retaining the last capacity samples.
func NewRawRing(capacity int) (*RawRing, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("core: raw ring capacity must be positive")
	}
	return &RawRing{cap: capacity, buf: make([]pmu.Sample, capacity)}, nil
}

// Push retains one sample, evicting the oldest when full.
func (r *RawRing) Push(s pmu.Sample) {
	r.buf[r.next] = s
	r.next++
	if r.next == r.cap {
		r.next = 0
		r.full = true
	}
}

// Len returns the number of retained samples.
func (r *RawRing) Len() int {
	if r.full {
		return r.cap
	}
	return r.next
}

// Dump returns the retained samples, oldest first, and counts the dump.
func (r *RawRing) Dump() []pmu.Sample {
	r.dumps++
	out := make([]pmu.Sample, 0, r.Len())
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dumps returns how many times Dump was called.
func (r *RawRing) Dumps() int { return r.dumps }
