package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// TestCloseIdempotent is the regression test for repeated Close: the first
// Close flushes still-open items exactly once; every later Close changes
// nothing — no re-emitted items, no double-counted diagnostics.
func TestCloseIdempotent(t *testing.T) {
	syms := symtab.NewTable()
	fn := syms.MustRegister("f", 256)

	var emitted []uint64
	s, err := NewStreamIntegrator(syms, Options{}, func(it *Item) {
		emitted = append(emitted, it.ID)
	})
	if err != nil {
		t.Fatal(err)
	}
	// One cleanly closed item, then one left open (its End marker lost).
	s.Marker(trace.Marker{Core: 0, Item: 1, TSC: 100, Kind: trace.ItemBegin})
	s.Sample(pmu.Sample{Core: 0, TSC: 150, IP: fn.Base})
	s.Marker(trace.Marker{Core: 0, Item: 1, TSC: 200, Kind: trace.ItemEnd})
	s.Marker(trace.Marker{Core: 0, Item: 2, TSC: 300, Kind: trace.ItemBegin})
	s.Sample(pmu.Sample{Core: 0, TSC: 350, IP: fn.Base})

	s.Close()
	if len(emitted) != 2 {
		t.Fatalf("after first Close: %d items emitted, want 2", len(emitted))
	}
	d := s.Diag()
	if d.UnclosedItems != 1 {
		t.Fatalf("after first Close: UnclosedItems = %d, want 1", d.UnclosedItems)
	}

	// Repeated Close must be a no-op now.
	s.Close()
	s.Close()
	s.Close()
	if len(emitted) != 2 {
		t.Fatalf("repeated Close re-emitted items: %d, want 2", len(emitted))
	}
	if d2 := s.Diag(); d2 != d {
		t.Fatalf("repeated Close changed diagnostics:\n first: %v\n after: %v", d, d2)
	}
	if s.Items() != 2 {
		t.Fatalf("Items() = %d after repeated Close, want 2", s.Items())
	}
}

// TestDiagnosticsStringGolden byte-pins the String format: CLI and log
// output must not silently reorder or rename fields.
func TestDiagnosticsStringGolden(t *testing.T) {
	d := Diagnostics{
		UnattributedSamples: 1,
		UnresolvedSamples:   2,
		OrphanEndMarkers:    3,
		ReopenedItems:       4,
		UnclosedItems:       5,
		RepairedMarkers:     6,
		IgnoredEventSamples: 7,
		SymCacheHits:        8,
		SymCacheMisses:      9,
	}
	const want = "diag: unattributed=1 unresolved=2 orphan_ends=3 reopened=4 unclosed=5 repaired=6 ignored_event=7 symcache=8/9"
	if got := d.String(); got != want {
		t.Fatalf("Diagnostics.String drifted:\n got: %q\nwant: %q", got, want)
	}
	const zero = "diag: unattributed=0 unresolved=0 orphan_ends=0 reopened=0 unclosed=0 repaired=0 ignored_event=0 symcache=0/0"
	if got := (Diagnostics{}).String(); got != zero {
		t.Fatalf("zero Diagnostics.String drifted:\n got: %q\nwant: %q", got, zero)
	}
}

// buildSmallTrace runs a tiny simulated workload and returns its set.
func buildSmallTrace(t *testing.T, items int) *trace.Set {
	t.Helper()
	m := sim.MustNew(sim.Config{Cores: 1})
	fn := m.Syms.MustRegister("work", 4096)
	pebs := pmu.NewPEBS(pmu.PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(pmu.UopsRetired, 500, pebs)
	log := trace.NewMarkerLog(1, 0)
	for id := uint64(1); id <= uint64(items); id++ {
		log.Mark(c, id, trace.ItemBegin)
		c.Call(fn, func() { c.Exec(5000) })
		log.Mark(c, id, trace.ItemEnd)
	}
	return trace.NewSet(m, log, pebs.Samples())
}

// TestIntegratePublishesMetrics: one offline pass lands its items, diag
// counters, and latency histograms in the default registry; disabling
// the registry silences everything without changing results.
func TestIntegratePublishesMetrics(t *testing.T) {
	set := buildSmallTrace(t, 50)

	reg := obs.NewRegistry()
	old := obs.SetDefault(reg)
	defer obs.SetDefault(old)

	a, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("fluct_core_integrations_total").Value(); got != 1 {
		t.Fatalf("integrations counter = %d, want 1", got)
	}
	if got := reg.Counter("fluct_core_items_total").Value(); got != uint64(len(a.Items)) {
		t.Fatalf("items counter = %d, want %d", got, len(a.Items))
	}
	if got := reg.Histogram("fluct_core_item_cycles").Count(); got != uint64(len(a.Items)) {
		t.Fatalf("item cycles histogram count = %d, want %d", got, len(a.Items))
	}
	if got := reg.Counter("fluct_core_symcache_hits_total").Value(); got != uint64(a.Diag.SymCacheHits) {
		t.Fatalf("symcache hits counter = %d, diag says %d", got, a.Diag.SymCacheHits)
	}
	if got := reg.Gauge("fluct_core_mean_confidence").Value(); got <= 0 || got > 1 {
		t.Fatalf("mean confidence gauge = %v, want (0,1]", got)
	}
	if got := reg.Gauge("fluct_core_shards").Value(); got != 1 {
		t.Fatalf("shards gauge = %v, want 1", got)
	}

	// Disabled telemetry: identical analysis, untouched registry.
	obs.SetDefault(nil)
	b, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Items) != len(a.Items) || b.Diag != a.Diag {
		t.Fatalf("disabling telemetry changed the analysis")
	}
	if got := reg.Counter("fluct_core_integrations_total").Value(); got != 1 {
		t.Fatalf("disabled run still published: counter = %d", got)
	}
}

// TestStreamPublishesMetrics: the online integrator's cached handles
// feed item/recycle/freelist telemetry.
func TestStreamPublishesMetrics(t *testing.T) {
	set := buildSmallTrace(t, 20)

	reg := obs.NewRegistry()
	old := obs.SetDefault(reg)
	defer obs.SetDefault(old)

	s, err := NewStreamIntegrator(set.Syms, Options{}, func(*Item) {})
	if err != nil {
		t.Fatal(err)
	}
	recycling, err := NewStreamIntegrator(set.Syms, Options{}, func(*Item) {})
	if err != nil {
		t.Fatal(err)
	}
	recycling.OnItem = func(it *Item) { recycling.Recycle(it) }
	feedInOrder(s, set)
	feedInOrder(recycling, set)

	if got := reg.Counter("fluct_core_stream_items_total").Value(); got != 40 {
		t.Fatalf("stream items counter = %d, want 40 (20 from each integrator)", got)
	}
	if got := reg.Counter("fluct_core_stream_recycled_total").Value(); got != 20 {
		t.Fatalf("recycled counter = %d, want 20", got)
	}
	if got := reg.Gauge("fluct_core_stream_open_items").Value(); got != 0 {
		t.Fatalf("open items gauge = %v after drain, want 0", got)
	}
	// The recycling integrator allocates once and reuses thereafter;
	// the non-recycling one allocates per item.
	allocs := reg.Counter("fluct_core_stream_item_allocs_total").Value()
	if allocs != 20+1 {
		t.Fatalf("alloc counter = %d, want 21", allocs)
	}
	if got := reg.Histogram("fluct_core_item_confidence_milli").Count(); got != 40 {
		t.Fatalf("confidence histogram count = %d, want 40", got)
	}
}
