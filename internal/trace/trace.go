// Package trace holds the two raw data streams the hybrid approach
// integrates (Fig. 3): marker records produced by the coarse-grained
// instrumentation at data-item switches, and hardware samples produced by
// PEBS. It also serializes complete trace sets so diagnosis can happen
// offline, as the paper's prototype does by dumping both streams to SSD.
package trace

// Regenerate the golden-trace fixtures (testdata/*.fltrc + *.golden)
// whenever the trace format, the integrator, or the report rendering
// changes on purpose:
//go:generate go run ./testdata/gen

import (
	"cmp"
	"slices"

	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/symtab"
)

// Kind distinguishes the two marker flavours inserted at data-item switches.
type Kind uint8

const (
	// ItemBegin marks the instant a data-item enters the core (the thread
	// starts processing it).
	ItemBegin Kind = iota
	// ItemEnd marks the instant the data-item leaves the core.
	ItemEnd
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == ItemBegin {
		return "begin"
	}
	return "end"
}

// Marker is one record written by the instrumented marking function:
// "the timestamp and the data-item ID are recorded by the instrumented
// code" (§III-D step 1). Unlike a PEBS sample it carries the item ID —
// that asymmetry (Table I) is what the integration step resolves.
type Marker struct {
	Item uint64
	TSC  uint64
	Core int32
	Kind Kind
}

// DefaultMarkerUops is the default instruction cost of one marking-function
// invocation: a timestamp read plus a buffered log append, ~150 instructions
// (§III-E notes the prototype wrote straight to SSD but that an in-memory
// buffer is the obvious optimization; that is what we model by default).
const DefaultMarkerUops = 150

// MarkerLog collects markers. Each core appends to a private slice from its
// own pinned goroutine, so no locking is needed and output is deterministic.
type MarkerLog struct {
	costUops uint64
	perCore  [][]Marker
}

// NewMarkerLog creates a log for a machine with the given core count; each
// Mark charges costUops to the calling core (0 means DefaultMarkerUops).
func NewMarkerLog(cores int, costUops uint64) *MarkerLog {
	if costUops == 0 {
		costUops = DefaultMarkerUops
	}
	return &MarkerLog{costUops: costUops, perCore: make([][]Marker, cores)}
}

// Mark records a data-item switch on c's timeline. The timestamp is taken on
// entry to the marking function and the function's own cost is paid
// afterwards, as a real `log(d.id, timestamp)` statement would behave.
func (l *MarkerLog) Mark(c *sim.Core, item uint64, k Kind) {
	id := c.ID()
	l.perCore[id] = append(l.perCore[id], Marker{Item: item, TSC: c.Now(), Core: int32(id), Kind: k})
	c.Exec(l.costUops)
}

// Count returns the total number of markers recorded.
func (l *MarkerLog) Count() int {
	n := 0
	for _, s := range l.perCore {
		n += len(s)
	}
	return n
}

// Markers merges the per-core logs into one slice sorted by MarkerOrder.
// Call after the workload finishes. Each core's log is appended in clock
// order, so only a zero-cycle Begin→End pair needs the sort.
func (l *MarkerLog) Markers() []Marker {
	var out []Marker
	for _, s := range l.perCore {
		out = append(out, s...)
	}
	if !slices.IsSortedFunc(out, MarkerOrder) {
		slices.SortStableFunc(out, MarkerOrder)
	}
	return out
}

// MarkerOrder orders markers by (core, TSC, kind), End before Begin at the
// same instant so back-to-back items (End of one, Begin of the next, zero
// cycles apart) stay pairable.
func MarkerOrder(a, b Marker) int {
	if c := cmp.Compare(a.Core, b.Core); c != 0 {
		return c
	}
	if c := cmp.Compare(a.TSC, b.TSC); c != 0 {
		return c
	}
	return cmp.Compare(b.Kind, a.Kind)
}

// Set is one complete trace: both raw streams plus everything needed to
// interpret them (symbol table for IP resolution, clock frequency for time
// conversion).
type Set struct {
	// FreqHz is the TSC frequency of the traced machine.
	FreqHz uint64
	// Markers are the instrumentation records, any order.
	Markers []Marker
	// Samples are the PEBS records, any order.
	Samples []pmu.Sample
	// Syms resolves sampled IPs to functions.
	Syms *symtab.Table
}

// NewSet assembles a Set from a finished run.
func NewSet(m *sim.Machine, log *MarkerLog, samples []pmu.Sample) *Set {
	return &Set{
		FreqHz:  m.FreqHz(),
		Markers: log.Markers(),
		Samples: samples,
		Syms:    m.Syms,
	}
}

// CyclesToMicros converts cycles on this trace's clock to microseconds.
func (s *Set) CyclesToMicros(cy uint64) float64 {
	return float64(cy) * 1e6 / float64(s.FreqHz)
}

// Feed is a walk over a set's records in stream feed order: per core in
// ascending core order, by timestamp, markers before samples at equal
// timestamps, and otherwise in set order. That is the order a live per-core
// ring drain delivers, the order ShipSet sends and the order
// core.StreamIntegrator expects.
//
// When Markers and Samples are each already in (core, TSC) order — as
// NewSet and Decode hand them over — the walk is a linear two-way merge
// that takes the marker on an equal (core, TSC) and allocates nothing: a
// stable sort of [markers…, samples…] by (core, TSC) is exactly that merge.
// Any other set pays for the stable sort once, when the walk starts.
//
// The walk never re-reads a record it has returned, so its caller may
// rewrite a returned record (faults.slowFunction shifts each TSC as it
// goes); it must not touch one not yet returned.
//
// It is not quite the offline integrator's order: Integrate takes a sample
// on an item's End cycle before the End, while this order puts the End
// first, so the sample lands in the item a Begin on that cycle opens, or in
// none.
type Feed struct {
	set   *Set
	m, p  int     // merge: the next marker and sample; sort: m is the position in order
	order []int32 // the sorted walk when a stream is out of order, else nil
}

// Feed starts a walk over s in stream feed order.
func (s *Set) Feed() Feed {
	f := Feed{set: s}
	if !slices.IsSortedFunc(s.Markers, func(a, b Marker) int { return feedCompare(a.Core, a.TSC, b.Core, b.TSC) }) ||
		!slices.IsSortedFunc(s.Samples, func(a, b pmu.Sample) int { return feedCompare(a.Core, a.TSC, b.Core, b.TSC) }) {
		f.order = s.sortedFeed()
	}
	return f
}

// Next returns the next record, false once the walk is done. An r >= 0
// indexes the set's Samples; an r < 0 indexes its Markers at ^r.
func (f *Feed) Next() (r int32, ok bool) {
	if f.order != nil {
		if f.m == len(f.order) {
			return 0, false
		}
		f.m++
		return f.order[f.m-1], true
	}
	ms, ss := f.set.Markers, f.set.Samples
	switch {
	case f.m < len(ms) && (f.p == len(ss) || feedCompare(ms[f.m].Core, ms[f.m].TSC, ss[f.p].Core, ss[f.p].TSC) <= 0):
		f.m++
		return ^int32(f.m - 1), true
	case f.p < len(ss):
		f.p++
		return int32(f.p - 1), true
	}
	return 0, false
}

// feedCompare orders two records by (core, TSC).
func feedCompare(ac int32, at uint64, bc int32, bt uint64) int {
	if ac != bc {
		return cmp.Compare(ac, bc)
	}
	return cmp.Compare(at, bt)
}

// sortedFeed is the feed order of a set whose streams are not both in
// (core, TSC) order: a stable sort of its markers, then its samples.
func (s *Set) sortedFeed() []int32 {
	type ev struct {
		tsc  uint64
		core int32
		ref  int32
	}
	evs := make([]ev, 0, len(s.Markers)+len(s.Samples))
	for i := range s.Markers {
		evs = append(evs, ev{s.Markers[i].TSC, s.Markers[i].Core, ^int32(i)})
	}
	for i := range s.Samples {
		evs = append(evs, ev{s.Samples[i].TSC, s.Samples[i].Core, int32(i)})
	}
	slices.SortStableFunc(evs, func(a, b ev) int { return feedCompare(a.core, a.tsc, b.core, b.tsc) })
	out := make([]int32, len(evs))
	for i := range evs {
		out[i] = evs[i].ref
	}
	return out
}
