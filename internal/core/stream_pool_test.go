package core

import (
	"testing"

	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestStreamSteadyStateZeroAlloc: a recycling consumer makes the online
// integration hot path allocation-free in steady state — the point of the
// free list, since the §IV-C3 online monitor runs in production.
func TestStreamSteadyStateZeroAlloc(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 512)
	g := m.Syms.MustRegister("g", 512)

	var seen int
	var s *StreamIntegrator
	s, err := NewStreamIntegrator(m.Syms, Options{}, func(it *Item) {
		seen += it.SampleCount
		s.Recycle(it)
	})
	if err != nil {
		t.Fatal(err)
	}

	var tsc uint64
	id := uint64(1)
	feedOne := func() {
		tsc += 100
		s.Marker(trace.Marker{Item: id, TSC: tsc, Kind: trace.ItemBegin})
		for k := 0; k < 4; k++ {
			tsc += 10
			ip := f.Base
			if k%2 == 1 {
				ip = g.Base
			}
			s.Sample(pmu.Sample{TSC: tsc, IP: ip, Event: pmu.UopsRetired})
		}
		tsc += 10
		s.Marker(trace.Marker{Item: id, TSC: tsc, Kind: trace.ItemEnd})
		id++
	}
	// Warm the pool and the per-core stream state before measuring.
	for i := 0; i < 16; i++ {
		feedOne()
	}
	if avg := testing.AllocsPerRun(200, feedOne); avg != 0 {
		t.Errorf("steady-state allocs per item = %v, want 0", avg)
	}
	if seen == 0 {
		t.Fatal("no samples reached the callback")
	}
}

// TestStreamRecycleReopenedItem drives the forced-reopen path (an ItemBegin
// while another item is open, i.e. a lost End marker) through a recycling
// consumer and checks that reused pool memory never leaks one item's spans
// into the next.
func TestStreamRecycleReopenedItem(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 512)
	g := m.Syms.MustRegister("g", 512)

	type snap struct {
		id      uint64
		end     uint64
		samples int
		funcs   []string
	}
	var got []snap
	var s *StreamIntegrator
	s, err := NewStreamIntegrator(m.Syms, Options{}, func(it *Item) {
		sn := snap{id: it.ID, end: it.EndTSC, samples: it.SampleCount}
		for _, fs := range it.Funcs {
			sn.funcs = append(sn.funcs, fs.Fn.Name)
		}
		got = append(got, sn)
		s.Recycle(it)
	})
	if err != nil {
		t.Fatal(err)
	}

	s.Marker(trace.Marker{Item: 1, TSC: 100, Kind: trace.ItemBegin})
	s.Sample(pmu.Sample{TSC: 110, IP: f.Base, Event: pmu.UopsRetired})
	s.Sample(pmu.Sample{TSC: 120, IP: g.Base, Event: pmu.UopsRetired})
	// End marker for item 1 was lost; item 2 begins while 1 is open.
	s.Marker(trace.Marker{Item: 2, TSC: 200, Kind: trace.ItemBegin})
	s.Sample(pmu.Sample{TSC: 210, IP: g.Base, Event: pmu.UopsRetired})
	s.Marker(trace.Marker{Item: 2, TSC: 300, Kind: trace.ItemEnd})
	// Item 3 reuses item 1's or 2's recycled storage.
	s.Marker(trace.Marker{Item: 3, TSC: 400, Kind: trace.ItemBegin})
	s.Sample(pmu.Sample{TSC: 410, IP: f.Base, Event: pmu.UopsRetired})
	s.Marker(trace.Marker{Item: 3, TSC: 500, Kind: trace.ItemEnd})
	s.Close()

	if d := s.Diag(); d.ReopenedItems != 1 || d.UnclosedItems != 0 {
		t.Errorf("diag = %+v, want 1 reopened, 0 unclosed", d)
	}
	want := []snap{
		{id: 1, end: 200, samples: 2, funcs: []string{"f", "g"}},
		{id: 2, end: 300, samples: 1, funcs: []string{"g"}},
		{id: 3, end: 500, samples: 1, funcs: []string{"f"}},
	}
	if len(got) != len(want) {
		t.Fatalf("emitted %d items, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.id != w.id || g.end != w.end || g.samples != w.samples {
			t.Errorf("item %d: got %+v, want %+v", i, g, w)
		}
		if len(g.funcs) != len(w.funcs) {
			t.Errorf("item %d: funcs %v, want %v (stale pooled spans?)", i, g.funcs, w.funcs)
			continue
		}
		for j := range w.funcs {
			if g.funcs[j] != w.funcs[j] {
				t.Errorf("item %d: funcs %v, want %v", i, g.funcs, w.funcs)
				break
			}
		}
	}
}

// TestStreamUnrecycledItemsSurvive: a consumer that retains items (never
// recycles) must keep seeing stable data — the pool only reuses what was
// explicitly handed back.
func TestStreamUnrecycledItemsSurvive(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 512)
	var kept []*Item
	s, err := NewStreamIntegrator(m.Syms, Options{}, func(it *Item) { kept = append(kept, it) })
	if err != nil {
		t.Fatal(err)
	}
	var tsc uint64
	for id := uint64(1); id <= 20; id++ {
		tsc += 100
		s.Marker(trace.Marker{Item: id, TSC: tsc, Kind: trace.ItemBegin})
		for k := uint64(0); k < id%5; k++ {
			tsc += 5
			s.Sample(pmu.Sample{TSC: tsc, IP: f.Base, Event: pmu.UopsRetired})
		}
		tsc += 5
		s.Marker(trace.Marker{Item: id, TSC: tsc, Kind: trace.ItemEnd})
	}
	s.Close()
	if len(kept) != 20 {
		t.Fatalf("kept %d items, want 20", len(kept))
	}
	for i, it := range kept {
		if it.ID != uint64(i+1) {
			t.Errorf("item %d: ID = %d, want %d", i, it.ID, i+1)
		}
		if want := int(uint64(i+1) % 5); it.SampleCount != want {
			t.Errorf("item %d: samples = %d, want %d (clobbered by pooling?)", i, it.SampleCount, want)
		}
	}
}
