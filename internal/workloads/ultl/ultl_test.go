package ultl

import (
	"testing"

	"repro/internal/core"
	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

func threeTasks() []Task {
	return []Task{
		{ID: 1, FnName: "handler_a", Uops: 50_000},
		{ID: 2, FnName: "handler_b", Uops: 30_000},
		{ID: 3, FnName: "handler_a", Uops: 20_000},
	}
}

func TestRunValidation(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	c := m.Core(0)
	if _, err := Run(c, Config{QuantumCycles: 0}, threeTasks()); err == nil {
		t.Error("accepted zero quantum")
	}
	if _, err := Run(c, DefaultConfig(), []Task{{ID: 0, FnName: "f", Uops: 10}}); err == nil {
		t.Error("accepted zero task ID")
	}
	bad := DefaultConfig()
	bad.TagRegister = pmu.NumRegs
	if _, err := Run(c, bad, threeTasks()); err == nil {
		t.Error("accepted out-of-range register")
	}
}

func TestRoundRobinInterleaves(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	c := m.Core(0)
	res, err := Run(c, DefaultConfig(), threeTasks())
	if err != nil {
		t.Fatal(err)
	}
	// Quantum 10k cycles = 10k uops at rate 1/1; task 1 (50k uops) needs 5
	// slices, task 2 needs 3, task 3 needs 2.
	if res.Slices[1] != 5 || res.Slices[2] != 3 || res.Slices[3] != 2 {
		t.Errorf("slices = %v, want 5/3/2", res.Slices)
	}
	if res.Switches != 10 {
		t.Errorf("switches = %d, want 10", res.Switches)
	}
	// True cycles track task sizes at IPC 1.
	if res.TrueCycles[1] != 50_000 {
		t.Errorf("task 1 cycles = %d, want 50000", res.TrueCycles[1])
	}
}

func TestZeroWorkTasksSkipped(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	c := m.Core(0)
	res, err := Run(c, DefaultConfig(), []Task{{ID: 5, FnName: "f", Uops: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TrueCycles) != 0 || res.Switches != 0 {
		t.Errorf("empty task executed: %+v", res)
	}
}

// TestRegisterTaggingRecoversInterleavedItems is the §V-A end-to-end check:
// despite timer-forced interleaving, register-based integration attributes
// per-item time correctly, within sampling error.
func TestRegisterTaggingRecoversInterleavedItems(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	c := m.Core(0)
	pb := pmu.NewPEBS(pmu.PEBSConfig{})
	c.PMU.MustProgram(pmu.UopsRetired, 500, pb)

	res, err := Run(c, DefaultConfig(), threeTasks())
	if err != nil {
		t.Fatal(err)
	}
	set := trace.NewSet(m, trace.NewMarkerLog(1, 0), pb.Samples())
	a, err := core.IntegrateByRegister(set, pmu.R13, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(a.Items))
	}
	if len(res.TrueCycles) != 3 {
		t.Fatalf("truth for %d tasks", len(res.TrueCycles))
	}
	for _, task := range threeTasks() {
		it := a.Item(task.ID)
		if it == nil {
			t.Fatalf("item %d missing", task.ID)
		}
		// Sample counts are the robust per-item signal: samples ≈ uops/R
		// (TrueCycles also includes the sampling overhead itself, so it is
		// not the right denominator).
		wantSamples := float64(task.Uops) / 500
		got := float64(it.SampleCount)
		if got < wantSamples*0.8 || got > wantSamples*1.2 {
			t.Errorf("item %d: %d samples, want ~%.0f", task.ID, it.SampleCount, wantSamples)
		}
	}
	// Item windows must interleave: item 2's window nests within item 1's.
	it1, it2 := a.Item(1), a.Item(2)
	if !(it1.BeginTSC < it2.BeginTSC && it2.BeginTSC < it1.EndTSC) {
		t.Error("expected interleaved item windows under timer switching")
	}
}

// TestUntaggedRunIsUnattributable shows the failure mode the extension
// fixes: without register tagging, no sample carries an item ID.
func TestUntaggedRunIsUnattributable(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	c := m.Core(0)
	pb := pmu.NewPEBS(pmu.PEBSConfig{})
	c.PMU.MustProgram(pmu.UopsRetired, 500, pb)
	cfg := DefaultConfig()
	cfg.TagRegister = -1
	if _, err := Run(c, cfg, threeTasks()); err != nil {
		t.Fatal(err)
	}
	set := trace.NewSet(m, trace.NewMarkerLog(1, 0), pb.Samples())
	a, err := core.IntegrateByRegister(set, pmu.R13, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 0 {
		t.Errorf("untagged run produced %d items", len(a.Items))
	}
	if a.Diag.UnattributedSamples != len(set.Samples) {
		t.Errorf("unattributed = %d, want all %d", a.Diag.UnattributedSamples, len(set.Samples))
	}
}

// TestSchedulerSamplesAttributeToScheduler: samples during context switches
// resolve to the scheduler symbol with no item.
func TestSchedulerSamplesAttributeToScheduler(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	c := m.Core(0)
	pb := pmu.NewPEBS(pmu.PEBSConfig{})
	// Sample very densely so switch windows (200 uops) catch samples.
	c.PMU.MustProgram(pmu.UopsRetired, 90, pb)
	cfg := DefaultConfig()
	if _, err := Run(c, cfg, threeTasks()); err != nil {
		t.Fatal(err)
	}
	sched := m.Syms.ByName(SchedFn)
	inSched := 0
	for _, s := range pb.Samples() {
		if sched.Contains(s.IP) {
			inSched++
			if s.Reg(pmu.R13) != 0 {
				t.Fatal("scheduler sample carries an item ID")
			}
		}
	}
	if inSched == 0 {
		t.Error("no samples hit the scheduler at R=90 over 10 switches")
	}
}
