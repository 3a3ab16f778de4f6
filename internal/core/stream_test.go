package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// feedInOrder pushes a trace set into a stream integrator in per-core
// timestamp order, interleaving markers and samples as a live stream would.
func feedInOrder(s *StreamIntegrator, set *trace.Set) {
	type ev struct {
		tsc    uint64
		core   int32
		marker *trace.Marker
		sample *pmu.Sample
	}
	var evs []ev
	for i := range set.Markers {
		m := &set.Markers[i]
		evs = append(evs, ev{tsc: m.TSC, core: m.Core, marker: m})
	}
	for i := range set.Samples {
		sm := &set.Samples[i]
		evs = append(evs, ev{tsc: sm.TSC, core: sm.Core, sample: sm})
	}
	// Stable sort by (core, tsc); markers with equal TSC keep their
	// begin/end ordering from the log.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0; j-- {
			a, b := evs[j-1], evs[j]
			if b.core < a.core || (b.core == a.core && b.tsc < a.tsc) {
				evs[j-1], evs[j] = b, a
			} else {
				break
			}
		}
	}
	for _, e := range evs {
		if e.marker != nil {
			s.Marker(*e.marker)
		} else {
			s.Sample(*e.sample)
		}
	}
	s.Close()
}

func TestStreamIntegratorValidation(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	if _, err := NewStreamIntegrator(nil, Options{}, func(*Item) {}); err == nil {
		t.Error("accepted nil symtab")
	}
	if _, err := NewStreamIntegrator(m.Syms, Options{}, nil); err == nil {
		t.Error("accepted nil callback")
	}
}

// TestStreamMatchesOffline: the online integrator must produce the same
// items as the offline Integrate on a real workload trace.
func TestStreamMatchesOffline(t *testing.T) {
	set, _ := runGroundTruth(t, 900, 25, 12000, 18000)
	offline, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var online []Item
	s, err := NewStreamIntegrator(set.Syms, Options{}, func(it *Item) {
		online = append(online, *it)
	})
	if err != nil {
		t.Fatal(err)
	}
	feedInOrder(s, set)

	if len(online) != len(offline.Items) {
		t.Fatalf("online %d items, offline %d", len(online), len(offline.Items))
	}
	for i := range online {
		a, b := online[i], offline.Items[i]
		if a.ID != b.ID || a.BeginTSC != b.BeginTSC || a.EndTSC != b.EndTSC || a.SampleCount != b.SampleCount {
			t.Errorf("item %d differs: online %+v offline %+v", i, a, b)
		}
		if !reflect.DeepEqual(a.Funcs, b.Funcs) {
			t.Errorf("item %d functions differ:\n online %+v\noffline %+v", i, a.Funcs, b.Funcs)
		}
	}
	if d := s.Diag(); d.UnattributedSamples != offline.Diag.UnattributedSamples {
		t.Errorf("unattributed: online %d, offline %d", d.UnattributedSamples, offline.Diag.UnattributedSamples)
	}
	if s.Items() != len(offline.Items) {
		t.Errorf("Items() = %d", s.Items())
	}
}

func TestStreamAnomalies(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	var done []Item
	s, err := NewStreamIntegrator(m.Syms, Options{}, func(it *Item) { done = append(done, *it) })
	if err != nil {
		t.Fatal(err)
	}
	s.Marker(trace.Marker{Item: 9, TSC: 5, Kind: trace.ItemEnd}) // orphan
	s.Marker(trace.Marker{Item: 1, TSC: 10, Kind: trace.ItemBegin})
	s.Marker(trace.Marker{Item: 2, TSC: 20, Kind: trace.ItemBegin}) // reopen
	s.Marker(trace.Marker{Item: 2, TSC: 30, Kind: trace.ItemEnd})
	s.Marker(trace.Marker{Item: 3, TSC: 40, Kind: trace.ItemBegin}) // unclosed
	s.Close()
	d := s.Diag()
	if d.OrphanEndMarkers != 1 || d.ReopenedItems != 1 || d.UnclosedItems != 1 {
		t.Errorf("diagnostics wrong: %+v", d)
	}
	// The unclosed item 3 is no longer silently held: Close flushes it as a
	// low-confidence reconstruction ending at the core's last timestamp.
	if len(done) != 3 || done[0].ID != 1 || done[1].ID != 2 || done[2].ID != 3 {
		t.Fatalf("completed items = %+v, want IDs [1 2 3]", done)
	}
	if done[0].Confidence != confReopened {
		t.Errorf("force-closed item confidence = %v, want %v", done[0].Confidence, confReopened)
	}
	if done[1].Confidence != 1 {
		t.Errorf("clean item confidence = %v, want 1", done[1].Confidence)
	}
	if fl := done[2]; fl.Confidence != confUnclosed || fl.EndTSC != 40 {
		t.Errorf("flushed unclosed item = %+v, want confidence %v, end 40", fl, confUnclosed)
	}
}

func TestStreamOutOfOrderDropped(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 64)
	var items []Item
	s, err := NewStreamIntegrator(m.Syms, Options{}, func(it *Item) { items = append(items, *it) })
	if err != nil {
		t.Fatal(err)
	}
	s.Marker(trace.Marker{Item: 1, TSC: 100, Kind: trace.ItemBegin})
	s.Sample(pmu.Sample{TSC: 150, IP: f.Base, Event: pmu.UopsRetired})
	s.Sample(pmu.Sample{TSC: 120, IP: f.Base, Event: pmu.UopsRetired}) // stale
	s.Marker(trace.Marker{Item: 1, TSC: 200, Kind: trace.ItemEnd})
	s.Close()
	if s.OutOfOrder() != 1 {
		t.Errorf("out-of-order = %d, want 1", s.OutOfOrder())
	}
	if len(items) != 1 || items[0].SampleCount != 1 {
		t.Errorf("items = %+v", items)
	}
}

func TestStreamBoundaryExclusion(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 64)
	var items []Item
	s, err := NewStreamIntegrator(m.Syms, Options{ExcludeBoundaries: true}, func(it *Item) { items = append(items, *it) })
	if err != nil {
		t.Fatal(err)
	}
	s.Marker(trace.Marker{Item: 1, TSC: 100, Kind: trace.ItemBegin})
	s.Sample(pmu.Sample{TSC: 100, IP: f.Base, Event: pmu.UopsRetired}) // on boundary
	s.Sample(pmu.Sample{TSC: 101, IP: f.Base, Event: pmu.UopsRetired})
	s.Marker(trace.Marker{Item: 1, TSC: 200, Kind: trace.ItemEnd})
	s.Close()
	if items[0].SampleCount != 1 {
		t.Errorf("boundary sample not excluded: %+v", items[0])
	}
}

func TestStreamEventFilter(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 64)
	var items []Item
	s, _ := NewStreamIntegrator(m.Syms, Options{Event: pmu.LLCMisses}, func(it *Item) { items = append(items, *it) })
	s.Marker(trace.Marker{Item: 1, TSC: 10, Kind: trace.ItemBegin})
	s.Sample(pmu.Sample{TSC: 20, IP: f.Base, Event: pmu.UopsRetired})
	s.Sample(pmu.Sample{TSC: 30, IP: f.Base, Event: pmu.LLCMisses})
	s.Marker(trace.Marker{Item: 1, TSC: 40, Kind: trace.ItemEnd})
	s.Close()
	if items[0].SampleCount != 1 || s.Diag().IgnoredEventSamples != 1 {
		t.Errorf("event filter wrong: %+v %+v", items[0], s.Diag())
	}
}

// TestStreamOnlinePipeline wires the full §IV-C3 pipeline: stream
// integration → online monitor → raw-ring dump on divergence.
func TestStreamOnlinePipeline(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	fn := m.Syms.MustRegister("f", 4096)
	pebs := pmu.NewPEBS(pmu.PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(pmu.UopsRetired, 500, pebs)
	log := trace.NewMarkerLog(1, 0)
	// 30 steady items, one straggler in the middle.
	for id := uint64(1); id <= 30; id++ {
		work := uint64(20_000)
		if id == 17 {
			work = 90_000
		}
		log.Mark(c, id, trace.ItemBegin)
		c.Call(fn, func() { c.Exec(work) })
		log.Mark(c, id, trace.ItemEnd)
		c.Exec(300)
	}
	set := trace.NewSet(m, log, pebs.Samples())

	ring, err := NewRawRing(256)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewOnlineMonitor(0.5)
	var dumped [][]pmu.Sample
	s, _ := NewStreamIntegrator(set.Syms, Options{}, func(it *Item) {
		if len(mon.Observe(it)) > 0 {
			dumped = append(dumped, ring.Dump())
		}
	})
	feedInOrderWithRing(s, set, ring)

	if len(dumped) != 1 {
		t.Fatalf("dumps = %d, want exactly 1 (item 17)", len(dumped))
	}
	if len(mon.Dumps()) != 1 || mon.Dumps()[0].Item != 17 {
		t.Errorf("divergence = %+v, want item 17", mon.Dumps())
	}
	if len(dumped[0]) == 0 {
		t.Error("raw dump empty")
	}
	if ring.Dumps() != 1 {
		t.Errorf("ring dumps = %d", ring.Dumps())
	}
}

func feedInOrderWithRing(s *StreamIntegrator, set *trace.Set, ring *RawRing) {
	mi, si := 0, 0
	for mi < len(set.Markers) || si < len(set.Samples) {
		takeMarker := si >= len(set.Samples) ||
			(mi < len(set.Markers) && set.Markers[mi].TSC <= set.Samples[si].TSC)
		if takeMarker {
			s.Marker(set.Markers[mi])
			mi++
		} else {
			ring.Push(set.Samples[si])
			s.Sample(set.Samples[si])
			si++
		}
	}
	s.Close()
}

func TestRawRing(t *testing.T) {
	if _, err := NewRawRing(0); err == nil {
		t.Error("accepted zero capacity")
	}
	r, err := NewRawRing(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 6; i++ {
		r.Push(pmu.Sample{TSC: i})
	}
	if r.Len() != 4 {
		t.Errorf("len = %d, want 4", r.Len())
	}
	got := r.Dump()
	want := []uint64{3, 4, 5, 6}
	for i, s := range got {
		if s.TSC != want[i] {
			t.Fatalf("dump order wrong: %v", got)
		}
	}
	// Partial fill keeps insertion order.
	r2, _ := NewRawRing(8)
	r2.Push(pmu.Sample{TSC: 1})
	r2.Push(pmu.Sample{TSC: 2})
	if d := r2.Dump(); len(d) != 2 || d[0].TSC != 1 {
		t.Errorf("partial dump wrong: %v", d)
	}
}

// Property: for random well-formed traces, online == offline.
func TestQuickStreamMatchesOffline(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 512)
	g := m.Syms.MustRegister("g", 512)
	prop := func(gaps []uint8, ips []bool) bool {
		set := &trace.Set{FreqHz: m.FreqHz(), Syms: m.Syms}
		tsc := uint64(0)
		id := uint64(1)
		open := false
		si := 0
		for _, gp := range gaps {
			tsc += uint64(gp)%37 + 1
			if open && gp%3 == 0 && si < len(ips) {
				base := f.Base
				if ips[si] {
					base = g.Base
				}
				si++
				set.Samples = append(set.Samples, pmu.Sample{TSC: tsc, IP: base, Event: pmu.UopsRetired})
				continue
			}
			if open {
				set.Markers = append(set.Markers, trace.Marker{Item: id, TSC: tsc, Kind: trace.ItemEnd})
				id++
			} else {
				set.Markers = append(set.Markers, trace.Marker{Item: id, TSC: tsc, Kind: trace.ItemBegin})
			}
			open = !open
		}
		offline, err := Integrate(set, Options{})
		if err != nil {
			return false
		}
		var online []Item
		s, err := NewStreamIntegrator(set.Syms, Options{}, func(it *Item) { online = append(online, *it) })
		if err != nil {
			return false
		}
		feedInOrder(s, set)
		// Offline drops an unclosed trailing item; Close flushes it as a
		// low-confidence extra. Strip it before comparing.
		if extra := len(online) - len(offline.Items); extra != s.Diag().UnclosedItems {
			return false
		} else if extra == 1 {
			if online[len(online)-1].Confidence != confUnclosed {
				return false
			}
			online = online[:len(online)-1]
		}
		for i := range online {
			if online[i].ID != offline.Items[i].ID ||
				online[i].SampleCount != offline.Items[i].SampleCount ||
				!reflect.DeepEqual(online[i].Funcs, offline.Items[i].Funcs) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}
