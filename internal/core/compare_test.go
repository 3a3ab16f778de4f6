package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runTwoFunc builds a trace where f costs fUops and g costs gUops per item,
// degrades it by plan (the zero Plan injects nothing) and integrates it.
func runTwoFunc(t *testing.T, items int, fUops, gUops uint64, plan faults.Plan) (*Analysis, faults.Report) {
	t.Helper()
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 4096)
	g := m.Syms.MustRegister("g", 4096)
	pb := pmu.NewPEBS(pmu.PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(pmu.UopsRetired, 800, pb)
	log := trace.NewMarkerLog(1, 0)
	for id := 1; id <= items; id++ {
		log.Mark(c, uint64(id), trace.ItemBegin)
		c.Call(f, func() { c.Exec(fUops) })
		c.Call(g, func() { c.Exec(gUops) })
		log.Mark(c, uint64(id), trace.ItemEnd)
		c.Exec(300)
	}
	set, rep := plan.Apply(trace.NewSet(m, log, pb.Samples()))
	a, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a, rep
}

func TestCompareFindsTheRegressedFunction(t *testing.T) {
	base, _ := runTwoFunc(t, 30, 20_000, 15_000, faults.Plan{})
	// In the "production" run g regressed 3x; f is unchanged.
	prod, _ := runTwoFunc(t, 30, 20_000, 45_000, faults.Plan{})
	deltas, err := Compare(base, prod)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 {
		t.Fatalf("deltas = %d, want 2", len(deltas))
	}
	if deltas[0].Name != "g" {
		t.Errorf("largest delta = %s, want g", deltas[0].Name)
	}
	if deltas[0].Ratio < 2.5 || deltas[0].Ratio > 3.5 {
		t.Errorf("g ratio = %.2f, want ~3", deltas[0].Ratio)
	}
	var fDelta FuncDelta
	for _, d := range deltas {
		if d.Name == "f" {
			fDelta = d
		}
	}
	if fDelta.Ratio < 0.95 || fDelta.Ratio > 1.05 {
		t.Errorf("f ratio = %.2f, want ~1 (unchanged)", fDelta.Ratio)
	}
}

func TestCompareHandlesDisjointFunctions(t *testing.T) {
	base, _ := runTwoFunc(t, 10, 20_000, 15_000, faults.Plan{})
	empty := &Analysis{FreqHz: base.FreqHz}
	deltas, err := Compare(base, empty)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if d.OtherMeanUs != 0 || d.DeltaUs >= 0 {
			t.Errorf("function %s should show as fully regressed-away: %+v", d.Name, d)
		}
	}
}

func TestCompareValidation(t *testing.T) {
	a := &Analysis{FreqHz: 1}
	if _, err := Compare(nil, a); err == nil {
		t.Error("accepted nil base")
	}
	if _, err := Compare(a, nil); err == nil {
		t.Error("accepted nil other")
	}
	b := &Analysis{FreqHz: 2}
	if _, err := Compare(a, b); err == nil {
		t.Error("accepted clock mismatch")
	}
}

// TestMarkerLossDegradesToDiagnostics: losing 10% of marker records costs
// items (orphans/reopens) but never corrupts the survivors.
func TestMarkerLossDegradesToDiagnostics(t *testing.T) {
	a, rep := runTwoFunc(t, 100, 20_000, 15_000, faults.Plan{Seed: 1, MarkerDropRate: 0.1})
	if rep.MarkersDropped == 0 {
		t.Fatal("loss injection inactive")
	}
	anomalies := a.Diag.OrphanEndMarkers + a.Diag.ReopenedItems + a.Diag.UnclosedItems
	if anomalies == 0 {
		t.Error("lost markers produced no diagnostics")
	}
	if len(a.Items) < 70 {
		t.Errorf("only %d/100 items survived 10%% marker loss", len(a.Items))
	}
	for i := range a.Items {
		it := &a.Items[i]
		for _, fs := range it.Funcs {
			if fs.FirstTSC < it.BeginTSC || fs.LastTSC > it.EndTSC {
				t.Fatalf("item %d corrupted by marker loss", it.ID)
			}
		}
	}
}
