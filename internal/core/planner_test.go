package core

import (
	"testing"

	"repro/internal/pmu"
	"repro/internal/sim"
)

// calibrate sweeps a synthetic steady workload and returns planner inputs
// measured from the simulator, like an operator's calibration run.
func calibrate(t *testing.T, resets []uint64) []CalibrationPoint {
	t.Helper()
	run := func(reset uint64) (gap float64, clock uint64) {
		m := sim.MustNew(sim.Config{Cores: 1})
		c := m.Core(0)
		var pb *pmu.PEBS
		if reset > 0 {
			pb = pmu.NewPEBS(pmu.PEBSConfig{})
			c.PMU.MustProgram(pmu.UopsRetired, reset, pb)
		}
		c.Exec(4_000_000)
		if pb == nil {
			return 0, c.Now()
		}
		s := pb.Samples()
		if len(s) < 2 {
			t.Fatalf("too few samples at R=%d", reset)
		}
		return float64(s[len(s)-1].TSC-s[0].TSC) / float64(len(s)-1), c.Now()
	}
	_, base := run(0)
	pts := make([]CalibrationPoint, 0, len(resets))
	for _, r := range resets {
		gap, clock := run(r)
		pts = append(pts, CalibrationPoint{
			Reset:          r,
			IntervalCycles: gap,
			OverheadFrac:   float64(clock)/float64(base) - 1,
		})
	}
	return pts
}

func TestPlannerValidation(t *testing.T) {
	if _, err := NewResetPlanner(nil); err == nil {
		t.Error("accepted empty calibration")
	}
	if _, err := NewResetPlanner([]CalibrationPoint{{Reset: 1}, {Reset: 2}}); err == nil {
		t.Error("accepted two points")
	}
	bad := []CalibrationPoint{{Reset: 0}, {Reset: 2}, {Reset: 3}}
	if _, err := NewResetPlanner(bad); err == nil {
		t.Error("accepted zero reset")
	}
	// Intervals that shrink with R are nonsense.
	inverted := []CalibrationPoint{
		{Reset: 1000, IntervalCycles: 3000},
		{Reset: 2000, IntervalCycles: 2000},
		{Reset: 4000, IntervalCycles: 1000},
	}
	if _, err := NewResetPlanner(inverted); err == nil {
		t.Error("accepted inverted interval relationship")
	}
}

func TestPlannerLinearityOnRealCalibration(t *testing.T) {
	pts := calibrate(t, []uint64{1000, 2000, 4000, 8000, 16000, 32000})
	p, err := NewResetPlanner(pts)
	if err != nil {
		t.Fatal(err)
	}
	// §V-C: "the sample intervals have a strong linearity with the reset
	// values and the deviations are very small".
	if p.Linearity() < 0.999 {
		t.Errorf("interval linearity R2 = %.5f, want ~1", p.Linearity())
	}
	// On this workload (rate 1/1, 500-cycle samples) interval = R + 500.
	if got := p.PredictIntervalCycles(10_000); got < 10_300 || got > 10_700 {
		t.Errorf("predicted interval at R=10000 = %.0f, want ~10500", got)
	}
}

func TestPlannerPredictionsMatchHoldout(t *testing.T) {
	pts := calibrate(t, []uint64{1000, 2000, 8000, 32000})
	p, err := NewResetPlanner(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Hold out R=4000 and compare.
	holdout := calibrate(t, []uint64{4000})[0]
	if pred := p.PredictIntervalCycles(4000); pred < holdout.IntervalCycles*0.97 || pred > holdout.IntervalCycles*1.03 {
		t.Errorf("interval prediction %.0f vs measured %.0f", pred, holdout.IntervalCycles)
	}
	if pred := p.PredictOverheadFrac(4000); pred < holdout.OverheadFrac*0.9-0.005 || pred > holdout.OverheadFrac*1.1+0.005 {
		t.Errorf("overhead prediction %.4f vs measured %.4f", pred, holdout.OverheadFrac)
	}
}

func TestPlannerForOverheadBudget(t *testing.T) {
	pts := calibrate(t, []uint64{1000, 2000, 4000, 8000, 16000, 32000})
	p, err := NewResetPlanner(pts)
	if err != nil {
		t.Fatal(err)
	}
	// A 5% budget on this workload: overhead(R) ≈ 500/R, so R ≈ 10000.
	r, err := p.ForOverheadBudget(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if r < 8_000 || r > 13_000 {
		t.Errorf("R for 5%% budget = %d, want ~10000", r)
	}
	// The chosen R must actually respect the budget when run.
	check := calibrate(t, []uint64{r})[0]
	if check.OverheadFrac > 0.055 {
		t.Errorf("planned R=%d overruns budget: %.4f", r, check.OverheadFrac)
	}
	// A generous budget admits the densest calibrated R — smaller R means
	// better estimates, so the planner never gives back accuracy for free.
	if r, err := p.ForOverheadBudget(0.9); err != nil || r != 1000 {
		t.Errorf("huge budget => densest calibrated R, got %d, %v", r, err)
	}
	// An unattainable budget errors instead of silently overrunning.
	if _, err := p.ForOverheadBudget(1e-9); err == nil {
		t.Error("impossible budget accepted")
	}
	if _, err := p.ForOverheadBudget(0); err == nil {
		t.Error("accepted zero budget")
	}
}
