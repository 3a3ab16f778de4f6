package nginxsim

import (
	"testing"

	"repro/internal/core"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("accepted zero requests")
	}
	if _, err := Run(Config{Requests: -5}); err == nil {
		t.Error("accepted negative requests")
	}
}

func TestMeanRequestTimeNear149us(t *testing.T) {
	res, err := Run(Config{Requests: 2000})
	if err != nil {
		t.Fatal(err)
	}
	got := res.MeanRequestMicros()
	if got < TargetRequestMicros*0.9 || got > TargetRequestMicros*1.1 {
		t.Errorf("mean request time = %.1f us, want ~%.0f", got, TargetRequestMicros)
	}
}

func TestManyFunctionsUnder4us(t *testing.T) {
	res, err := Run(Config{Requests: 2000})
	if err != nil {
		t.Fatal(err)
	}
	under := 0
	for _, f := range res.Truth {
		if res.PerRequestMicros(f) < 4 {
			under++
		}
	}
	// Fig. 2's point: "many functions take less than 4 us and
	// instrumenting every function ... is too heavy".
	if under < len(res.Truth)*2/3 {
		t.Errorf("only %d/%d functions under 4 us", under, len(res.Truth))
	}
	// But not all — the event loop and writev are heavier.
	if under == len(res.Truth) {
		t.Error("no heavyweight functions at all; cost table degenerate")
	}
}

func TestBusyFractionIsMinority(t *testing.T) {
	res, err := Run(Config{Requests: 1000})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(res.BusyCycles) / float64(res.TotalCycles)
	if frac < 0.15 || frac > 0.55 {
		t.Errorf("busy fraction = %.2f; most of the 149 us is connection wait", frac)
	}
}

func TestProfileMatchesTruth(t *testing.T) {
	// The paper estimated Fig. 2 from perf cycle counts: per-request time
	// of f = 149 us * c_f / c_a. Our profile from PEBS samples must agree
	// with the simulator's ground truth on the big functions.
	res, err := Run(Config{Requests: 3000, Reset: 4000})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := core.Profile(res.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var truthBusy uint64
	for _, f := range res.Truth {
		truthBusy += f.TotalCycles
	}
	for _, f := range res.Truth[:4] { // the four heaviest
		e := prof.Entry(f.Name)
		if e == nil {
			t.Errorf("profile lost %s", f.Name)
			continue
		}
		wantShare := float64(f.TotalCycles) / float64(truthBusy)
		if e.Share < wantShare*0.85 || e.Share > wantShare*1.15 {
			t.Errorf("%s: profile share %.4f, truth share %.4f", f.Name, e.Share, wantShare)
		}
	}
}

func TestPerRequestTraceWithMarkers(t *testing.T) {
	res, err := Run(Config{Requests: 300, Reset: 2000, Markers: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Integrate(res.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 300 {
		t.Fatalf("items = %d, want 300", len(a.Items))
	}
	// The heavy event-loop function must be estimable in most requests.
	got := 0
	for i := range a.Items {
		if a.Items[i].Func("ngx_epoll_process_events").Estimable() {
			got++
		}
	}
	if got < 250 {
		t.Errorf("epoll estimable in only %d/300 requests", got)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	r1, err := Run(Config{Requests: 200, seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Config{Requests: 200, seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalCycles != r2.TotalCycles {
		t.Error("same seed produced different totals")
	}
	r3, err := Run(Config{Requests: 200, seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalCycles == r3.TotalCycles {
		t.Error("different seeds produced identical totals")
	}
}

func TestFunctionTableShape(t *testing.T) {
	fns := Functions()
	if len(fns) < 12 {
		t.Fatalf("function table too small: %d", len(fns))
	}
	seen := map[string]bool{}
	for _, f := range fns {
		if seen[f.Name] {
			t.Errorf("duplicate function %s", f.Name)
		}
		seen[f.Name] = true
		if f.Calls <= 0 || f.MeanUops == 0 {
			t.Errorf("degenerate cost row %+v", f)
		}
	}
}
