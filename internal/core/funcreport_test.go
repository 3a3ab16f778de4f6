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
// function's per-item series once, at len(a.Items), and sorts it in place
// for the percentiles, so what it allocates stays within one series per
// function plus a small fixed part; growing each series by append and
// sorting a copy of it cost about three.
func TestFunctionReportSeriesAllocatedOnce(t *testing.T) {
	set, _ := runGroundTruth(t, 800, 2000, 2000, 2000)
	a, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows := FunctionReport(a)
	series := uint64(len(rows)) * uint64(len(a.Items)) * 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	FunctionReport(a)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, series*11/10+4<<10; got > limit {
		t.Errorf("FunctionReport over %d items and %d functions allocated %d bytes, want ≤ %d (one series each)",
			len(a.Items), len(rows), got, limit)
	}
}
