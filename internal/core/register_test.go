package core

import (
	"testing"

	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

func regSample(tsc, ip uint64, core int32, item uint64) pmu.Sample {
	regs := [pmu.NumRegs]uint64{pmu.R13: item}
	return pmu.Sample{TSC: tsc, IP: ip, Core: core, Event: pmu.UopsRetired, Regs: pmu.CaptureRegs(&regs)}
}

func TestIntegrateByRegisterBasic(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 256)
	g := m.Syms.MustRegister("g", 256)
	set := &trace.Set{
		FreqHz: m.FreqHz(),
		Syms:   m.Syms,
		Samples: []pmu.Sample{
			regSample(100, f.Base, 0, 1),
			regSample(200, f.Base+8, 0, 1),
			// The scheduler switches to item 2 mid-way...
			regSample(300, g.Base, 0, 2),
			regSample(400, g.Base+8, 0, 2),
			// ...and back to item 1: interval-based mapping would be
			// wrong here, register mapping is exact.
			regSample(500, f.Base+16, 0, 1),
			// No item on core.
			{TSC: 600, IP: f.Base, Core: 0, Event: pmu.UopsRetired},
		},
	}
	a, err := IntegrateByRegister(set, pmu.R13, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(a.Items))
	}
	it1 := a.Item(1)
	if it1.SampleCount != 3 {
		t.Errorf("item 1 samples = %d, want 3", it1.SampleCount)
	}
	if it1.BeginTSC != 100 || it1.EndTSC != 500 {
		t.Errorf("item 1 window = [%d,%d], want [100,500]", it1.BeginTSC, it1.EndTSC)
	}
	if got := it1.Func("f").Cycles(); got != 400 {
		t.Errorf("item 1 f span = %d, want 400", got)
	}
	it2 := a.Item(2)
	if it2.Func("g").Cycles() != 100 {
		t.Errorf("item 2 g span = %d, want 100", it2.Func("g").Cycles())
	}
	// Items interleave: windows overlap, which interval integration cannot
	// represent.
	if !(it1.BeginTSC < it2.BeginTSC && it2.EndTSC < it1.EndTSC) {
		t.Errorf("expected interleaved windows, got [%d,%d] and [%d,%d]",
			it1.BeginTSC, it1.EndTSC, it2.BeginTSC, it2.EndTSC)
	}
	if a.Diag.UnattributedSamples != 1 {
		t.Errorf("unattributed = %d, want 1 (the reg==0 sample)", a.Diag.UnattributedSamples)
	}
}

func TestIntegrateByRegisterRejectsBadInput(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	set := &trace.Set{FreqHz: 1, Syms: m.Syms}
	if _, err := IntegrateByRegister(nil, pmu.R13, Options{}); err == nil {
		t.Error("accepted nil set")
	}
	if _, err := IntegrateByRegister(set, -1, Options{}); err == nil {
		t.Error("accepted negative register")
	}
	if _, err := IntegrateByRegister(set, pmu.NumRegs, Options{}); err == nil {
		t.Error("accepted out-of-range register")
	}
	if _, err := IntegrateByRegister(&trace.Set{FreqHz: 1}, pmu.R13, Options{}); err == nil {
		t.Error("accepted missing symtab")
	}
	if _, err := IntegrateByRegister(&trace.Set{Syms: m.Syms}, pmu.R13, Options{}); err == nil {
		t.Error("accepted zero freq")
	}
}

func TestIntegrateByRegisterPerCore(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 2})
	f := m.Syms.MustRegister("f", 256)
	set := &trace.Set{
		FreqHz: m.FreqHz(),
		Syms:   m.Syms,
		Samples: []pmu.Sample{
			regSample(100, f.Base, 0, 7),
			regSample(200, f.Base, 0, 7),
			regSample(100, f.Base, 1, 7), // same ID on another core: distinct item
		},
	}
	a, err := IntegrateByRegister(set, pmu.R13, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 2 {
		t.Fatalf("items = %d, want 2 (per-core separation)", len(a.Items))
	}
}

func TestIntegrateByRegisterEventFilter(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 256)
	s1 := regSample(100, f.Base, 0, 1)
	s2 := regSample(200, f.Base, 0, 1)
	s2.Event = pmu.LLCMisses
	set := &trace.Set{FreqHz: m.FreqHz(), Syms: m.Syms, Samples: []pmu.Sample{s1, s2}}
	a, err := IntegrateByRegister(set, pmu.R13, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Item(1).SampleCount != 1 || a.Diag.IgnoredEventSamples != 1 {
		t.Errorf("event filter wrong: %+v", a)
	}
}

// TestRegisterIntegrationEndToEnd drives the simulator with a register-
// tagging workload: a "user-level scheduler" switching two items on one
// core, with r13 updated at each switch — §V-A end to end at the analyzer
// level (the full ultl scheduler workload lives in internal/workloads/ultl).
func TestRegisterIntegrationEndToEnd(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 4096)
	pb := pmu.NewPEBS(pmu.PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(pmu.UopsRetired, 500, pb)

	// Interleave items 1 and 2 in four slices: 1,2,1,2.
	slices := []struct {
		item uint64
		uops uint64
	}{{1, 5000}, {2, 5000}, {1, 5000}, {2, 5000}}
	for _, s := range slices {
		c.SetReg(pmu.R13, s.item)
		c.Call(f, func() { c.Exec(s.uops) })
	}
	c.SetReg(pmu.R13, 0)

	set := trace.NewSet(m, trace.NewMarkerLog(1, 0), pb.Samples())
	a, err := IntegrateByRegister(set, pmu.R13, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(a.Items))
	}
	for _, id := range []uint64{1, 2} {
		it := a.Item(id)
		if it == nil {
			t.Fatalf("item %d missing", id)
		}
		// Each item ran 10000 uops; with R=500 expect ~20 samples.
		if it.SampleCount < 15 || it.SampleCount > 25 {
			t.Errorf("item %d samples = %d, want ~20", id, it.SampleCount)
		}
	}
}
