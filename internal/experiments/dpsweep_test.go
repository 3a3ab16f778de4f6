package experiments

import (
	"os"
	"testing"
)

// TestDPSweep runs the published dpsweep table and asserts its acceptance
// criteria: clean runs fire nothing, every organic and synthetic scenario
// is detected, and the first event's rank-0 verdict blames the stage that
// actually absorbed the cost.
func TestDPSweep(t *testing.T) {
	// Always the published 800-packet scale, even under -short: the sweep
	// runs in ~0.1s, and the 400-item half-scale leaves the detector's
	// baseline too thin for stable rank ordering.
	res, err := DPSweep()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		res.Render(os.Stdout)
	}
	if res.CleanEvents != 0 {
		t.Errorf("clean scenarios fired %d change events, want 0", res.CleanEvents)
	}
	for _, s := range res.Scenarios {
		if s.Expect == "" {
			if s.Detected {
				t.Errorf("%s: clean scenario fired (blamed %s)", s.Name, s.Blamed)
			}
			continue
		}
		if s.ExpectMiss {
			if s.Detected && !s.Top1 {
				t.Errorf("%s: below-floor scenario fired with wrong blame %s", s.Name, s.Blamed)
			}
			continue
		}
		if !s.Detected {
			t.Errorf("%s: no change event after onset", s.Name)
			continue
		}
		if !s.Top1 {
			t.Errorf("%s: rank-0 blame %s, want %s", s.Name, s.Blamed, s.Expect)
		}
		if s.LatencyItems <= 0 || s.LatencyItems > 192 {
			t.Errorf("%s: detection latency %d items out of range", s.Name, s.LatencyItems)
		}
	}
}
