package core

import (
	"runtime"
	"testing"

	"repro/internal/workloads/qapp"
)

func TestFunctionReportRanksFluctuatingFunctionFirst(t *testing.T) {
	res, err := qapp.Run(qapp.Config{Reset: 8000}, qapp.PaperQuerySequence())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Integrate(res.Set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := FunctionReport(a)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (f1, f2, f3)", len(rows))
	}
	// f3 fluctuates most: near-zero warm, huge cold.
	if rows[0].Fn.Name != qapp.FnF3 {
		t.Errorf("most fluctuating = %s, want %s", rows[0].Fn.Name, qapp.FnF3)
	}
	if rows[0].FluctuationRatio < 2 {
		t.Errorf("f3 fluctuation ratio = %.2f, want > 2", rows[0].FluctuationRatio)
	}
	for _, r := range rows {
		if r.EstimableItems > r.TotalItems {
			t.Errorf("%s: estimable %d > total %d", r.Fn.Name, r.EstimableItems, r.TotalItems)
		}
		if r.PerItemUs.N != len(a.Items) {
			t.Errorf("%s: summary N %d != items %d (zero-fill included)", r.Fn.Name, r.PerItemUs.N, len(a.Items))
		}
	}
}

func TestFunctionReportEmptyAnalysis(t *testing.T) {
	if rows := FunctionReport(&Analysis{FreqHz: 1}); len(rows) != 0 {
		t.Errorf("rows on empty analysis = %d", len(rows))
	}
}

func TestFunctionReportSteadyFunctionLowRatio(t *testing.T) {
	set, _ := runGroundTruth(t, 800, 20, 15000, 15000)
	a, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := FunctionReport(a)
	for _, r := range rows {
		if r.FluctuationRatio > 1.3 {
			t.Errorf("steady function %s has ratio %.2f", r.Fn.Name, r.FluctuationRatio)
		}
	}
}

// TestFunctionReportSeriesAllocatedOnce: FunctionReport allocates each
// function's series once, at the function's span count, pads each with the
// items the function missed in one scratch slice of len(a.Items), and
// sorts that in place for the percentiles, so what it allocates stays
// within the spans' 8 bytes each plus the items' 8 bytes each plus a small
// fixed part. On a dpchain round, where an item holds about three of the
// five stage functions, series of len(a.Items) each would exceed that.
func TestFunctionReportSeriesAllocatedOnce(t *testing.T) {
	a, err := Integrate(dpchainSet(t, 2, 1000), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := FunctionReport(a)
	spans := 0
	for i := range a.Items {
		spans += len(a.Items[i].Funcs)
	}
	series := uint64(spans+len(a.Items)) * 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	FunctionReport(a)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, series*11/10+4<<10; got > limit {
		t.Errorf("FunctionReport over %d items, %d functions and %d spans allocated %d bytes, want ≤ %d (the spans' series and one padded copy)",
			len(a.Items), len(rows), spans, got, limit)
	}
}
