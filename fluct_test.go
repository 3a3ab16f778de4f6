package repro

import (
	"bytes"
	"testing"
)

// TestPublicAPIEndToEnd drives the whole facade the way the README's
// quickstart does: machine, symbols, PEBS, markers, a two-core pipeline,
// integration, detection, serialization.
func TestPublicAPIEndToEnd(t *testing.T) {
	m := NewMachine(MachineConfig{Cores: 2})
	parse := m.Syms.MustRegister("parse", 1024)
	handle := m.Syms.MustRegister("handle", 4096)

	pebs := NewPEBS(PEBSConfig{})
	m.Core(1).PMU.MustProgram(UopsRetired, 1000, pebs)
	markers := NewMarkerLog(m.Cores(), 0)

	ring := NewQueue[uint64](QueueConfig{})
	m.MustSpawn(0, func(c *Core) {
		for id := uint64(1); id <= 12; id++ {
			c.Exec(200)
			ring.Push(c, id)
		}
		ring.Close()
	})
	m.MustSpawn(1, func(c *Core) {
		for {
			id, ok := ring.Pop(c)
			if !ok {
				return
			}
			markers.Mark(c, id, ItemBegin)
			c.Call(parse, func() { c.Exec(3_000) })
			c.Call(handle, func() {
				work := uint64(10_000)
				if id == 1 {
					work = 100_000 // the fluctuation
				}
				c.Exec(work)
			})
			markers.Mark(c, id, ItemEnd)
		}
	})
	m.Wait()

	set := NewTraceSet(m, markers, pebs.Samples())
	a, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 12 {
		t.Fatalf("items = %d, want 12", len(a.Items))
	}
	cold := a.Item(1)
	warm := a.Item(2)
	if cold.Func("handle").Cycles() < 5*warm.Func("handle").Cycles() {
		t.Errorf("fluctuation invisible: cold %d vs warm %d cycles",
			cold.Func("handle").Cycles(), warm.Func("handle").Cycles())
	}

	groups := DetectFluctuations(a, func(*Item) string { return "all" }, 3, 0.5)
	if len(groups) != 1 || len(groups[0].Outliers) != 1 || groups[0].Outliers[0].ID != 1 {
		t.Errorf("detector output wrong: %+v", groups)
	}

	prof, err := Profile(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Entry("handle") == nil {
		t.Error("profile lost handle")
	}

	rows := FunctionReport(a)
	if len(rows) == 0 || rows[0].Fn.Name != "handle" {
		t.Errorf("function report should rank handle first: %+v", rows)
	}

	var buf bytes.Buffer
	if err := set.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTraceSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Integrate(back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a2.Items) != len(a.Items) {
		t.Error("round-tripped trace integrates differently")
	}
}

// TestPublicAPIOnlinePipeline exercises the streaming surface: stream
// integrator, online monitor, raw ring.
func TestPublicAPIOnlinePipeline(t *testing.T) {
	m := NewMachine(MachineConfig{Cores: 1})
	f := m.Syms.MustRegister("f", 2048)
	pebs := NewPEBS(PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(UopsRetired, 500, pebs)
	markers := NewMarkerLog(1, 0)
	for id := uint64(1); id <= 20; id++ {
		work := uint64(10_000)
		if id == 15 {
			work = 60_000
		}
		markers.Mark(c, id, ItemBegin)
		c.Call(f, func() { c.Exec(work) })
		markers.Mark(c, id, ItemEnd)
	}
	set := NewTraceSet(m, markers, pebs.Samples())

	ring, err := NewRawRing(64)
	if err != nil {
		t.Fatal(err)
	}
	mon := NewOnlineMonitor(0.8)
	dumps := 0
	integ, err := NewStreamIntegrator(m.Syms, Options{}, func(it *Item) {
		if len(mon.Observe(it)) > 0 {
			if len(ring.Dump()) == 0 {
				t.Error("empty raw dump")
			}
			dumps++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	mi, si := 0, 0
	for mi < len(set.Markers) || si < len(set.Samples) {
		if si >= len(set.Samples) || (mi < len(set.Markers) && set.Markers[mi].TSC <= set.Samples[si].TSC) {
			integ.Marker(set.Markers[mi])
			mi++
		} else {
			ring.Push(set.Samples[si])
			integ.Sample(set.Samples[si])
			si++
		}
	}
	integ.Close()
	if dumps != 1 {
		t.Errorf("dumps = %d, want 1 (item 15)", dumps)
	}
	if integ.Items() != 20 {
		t.Errorf("streamed items = %d", integ.Items())
	}
}

// TestPublicAPIRegisterTagging exercises the §V-A surface.
func TestPublicAPIRegisterTagging(t *testing.T) {
	m := NewMachine(MachineConfig{Cores: 1})
	f := m.Syms.MustRegister("f", 2048)
	pebs := NewPEBS(PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(UopsRetired, 200, pebs)
	for id := uint64(1); id <= 3; id++ {
		c.SetReg(R13, id)
		c.Call(f, func() { c.Exec(5_000) })
	}
	c.SetReg(R13, 0)
	set := NewTraceSet(m, NewMarkerLog(1, 0), pebs.Samples())
	a, err := IntegrateByRegister(set, R13, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 3 {
		t.Errorf("items = %d, want 3", len(a.Items))
	}
}

// TestPublicAPIEventCounts exercises the §V-D surface.
func TestPublicAPIEventCounts(t *testing.T) {
	m := NewMachine(MachineConfig{Cores: 1})
	f := m.Syms.MustRegister("f", 2048)
	pebs := NewPEBS(PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(LLCMisses, 2, pebs)
	markers := NewMarkerLog(1, 0)
	markers.Mark(c, 1, ItemBegin)
	c.Call(f, func() {
		for i := 0; i < 500; i++ {
			c.Load(uint64(i) * 64)
		}
	})
	markers.Mark(c, 1, ItemEnd)
	set := NewTraceSet(m, markers, pebs.Samples())
	counts, err := EventCounts(set, LLCMisses, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 1 || counts[0].EstOccurrences == 0 {
		t.Errorf("event counts = %+v", counts)
	}
}
