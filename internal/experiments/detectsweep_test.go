package experiments

import (
	"strings"
	"testing"
)

// TestDetectSweepAcceptance pins the experiment's published claims: at the
// two highest severity rungs the detector finds ≥90% of the injected
// slowdowns and blames the injected stage within the top-3 verdicts in
// ≥80% of detections — and a clean workload produces zero change events.
func TestDetectSweepAcceptance(t *testing.T) {
	r, err := DetectSweep()
	if err != nil {
		t.Fatal(err)
	}
	if r.CleanChangepoints != 0 {
		t.Errorf("clean runs fired %d change events, want 0", r.CleanChangepoints)
	}
	if len(r.Rungs) < 2 {
		t.Fatalf("sweep produced %d rungs", len(r.Rungs))
	}
	for _, rung := range r.Rungs[len(r.Rungs)-2:] {
		if rung.Recall() < 0.9 {
			t.Errorf("factor %g: recall %.0f%% < 90%%", rung.Factor, rung.Recall()*100)
		}
		if rung.Detected > 0 && float64(rung.Top3)/float64(rung.Detected) < 0.8 {
			t.Errorf("factor %g: top-3 attribution %d/%d < 80%%",
				rung.Factor, rung.Top3, rung.Detected)
		}
	}
	// Detection latency must stay well inside the window: the scan fires
	// once the post-change side clears MinSegment, not a window later.
	for _, rung := range r.Rungs {
		if rung.Detected > 0 && rung.MeanLatencyItems > 64 {
			t.Errorf("factor %g: mean latency %.1f items exceeds half the window",
				rung.Factor, rung.MeanLatencyItems)
		}
	}
}

// TestDetectSweepDeterminism: the sweep is seeded end to end — workload
// jitter, fault injection, detector subsampling — so two runs must render
// the same table.
func TestDetectSweepDeterminism(t *testing.T) {
	render := func() string {
		r, err := detectSweep(400, []float64{2})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		r.Render(&b)
		return b.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("detectsweep not deterministic:\n%s\nvs\n%s", a, b)
	}
}
