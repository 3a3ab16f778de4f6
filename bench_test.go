// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations of the design choices DESIGN.md calls out. Each figure
// bench runs its experiment harness end to end per iteration and reports
// the headline quantities via b.ReportMetric; cmd/fluct prints the complete
// rows/series, recorded in EXPERIMENTS.md.
package repro

import (
	"testing"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads/qapp"
	"repro/internal/workloads/ultl"
)

// BenchmarkFig01TraceVsProfile regenerates the Fig. 1 concept: the same run
// as a per-item trace and an averaged profile.
func BenchmarkFig01TraceVsProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var a1, a2 float64
			for _, row := range r.TraceRows {
				if row.Fn == "A" && row.Request == 1 {
					a1 = row.ElapsedUs
				}
				if row.Fn == "A" && row.Request == 2 {
					a2 = row.ElapsedUs
				}
			}
			b.ReportMetric(a1, "A-req1-us")
			b.ReportMetric(a2, "A-req2-us")
		}
	}
}

// BenchmarkFig02NginxFunctionTimes regenerates Fig. 2: per-request elapsed
// time of each NGINX function (many under 4 µs, ~149 µs/request).
func BenchmarkFig02NginxFunctionTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(5000)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.MeanRequestUs, "us/request")
			b.ReportMetric(float64(r.Under4us), "fns-under-4us")
			b.ReportMetric(r.Rows[0].TruthUs, "heaviest-fn-us")
		}
	}
}

// BenchmarkFig04SampleInterval regenerates Fig. 4: achieved sample interval
// vs reset value for PEBS and perf across the three SPEC stand-ins.
func BenchmarkFig04SampleInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(experiments.Fig4Config{Uops: 2_000_000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, s := range r.Series {
				if s.Bench == "gcc" {
					b.ReportMetric(s.IntervalUs[0], string(s.Sampler)+"-gcc-R1000-us")
				}
			}
		}
	}
}

// BenchmarkFig08SampleApp regenerates Fig. 8: per-query stacked f1/f2/f3
// estimates over the paper's ten-query sequence at R=8000.
func BenchmarkFig08SampleApp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Queries[0].TotalUs, "query1-cold-us")
			b.ReportMetric(r.Queries[1].TotalUs, "query2-warm-us")
			b.ReportMetric(float64(len(r.Fluctuating)), "flagged-outliers")
		}
	}
}

// newACLSweep runs the §IV-C sweep at bench scale (full Table III rules,
// reduced packet count).
func newACLSweep(b *testing.B, packets int) *experiments.ACLSweep {
	b.Helper()
	s, err := experiments.RunACLSweep(experiments.ACLSweepConfig{Packets: packets})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFig09ACLEstimation regenerates Fig. 9: estimated per-packet
// rte_acl_classify time vs reset value against the instrumented baseline.
func BenchmarkFig09ACLEstimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newACLSweep(b, 3000)
		r := s.Fig9()
		if i == 0 {
			b.ReportMetric(r.Baseline[acl.TypeA].MeanUs, "baseline-A-us")
			b.ReportMetric(r.Baseline[acl.TypeC].MeanUs, "baseline-C-us")
			b.ReportMetric(r.ByType[acl.TypeA][0].MeanUs, "est-A-R8000-us")
			b.ReportMetric(r.ByType[acl.TypeC][0].MeanUs, "est-C-R8000-us")
		}
	}
}

// BenchmarkFig10Overhead regenerates Fig. 10: the tester-measured latency
// increase per reset value.
func BenchmarkFig10Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newACLSweep(b, 3000)
		r := s.Fig10()
		if i == 0 {
			b.ReportMetric(r.OverheadUs[0], "overhead-R8000-us")
			b.ReportMetric(r.OverheadUs[len(r.OverheadUs)-1], "overhead-R24000-us")
			b.ReportMetric(r.BaseUs, "Lstar-us")
		}
	}
}

// BenchmarkDataRateTable regenerates the §IV-C3 in-text table: PEBS sample
// volume per reset value.
func BenchmarkDataRateTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newACLSweep(b, 3000)
		r := s.DataRate()
		if i == 0 {
			b.ReportMetric(r.Rows[0].MBps, "MBps-R8000")
			b.ReportMetric(r.Rows[len(r.Rows)-1].MBps, "MBps-R24000")
			b.ReportMetric(r.Rows[0].PctOfMemBW, "pct-membw-16core")
		}
	}
}

// BenchmarkTableIIIRuleCompile regenerates Table III: compiling the 50,000
// Drop rules into 247 tries.
func BenchmarkTableIIIRuleCompile(b *testing.B) {
	rules := acl.PaperRuleSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := acl.MustBuild(rules, acl.PaperBuildConfig())
		if i == 0 {
			b.ReportMetric(float64(len(rules)), "rules")
			b.ReportMetric(float64(c.NumTries()), "tries")
		}
	}
}

// BenchmarkSecVATimerSwitching regenerates the §V-A extension: register-
// tagged integration of timer-interleaved items.
func BenchmarkSecVATimerSwitching(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := sim.MustNew(sim.Config{Cores: 1})
		c := m.Core(0)
		pebs := pmu.NewPEBS(pmu.PEBSConfig{})
		c.PMU.MustProgram(pmu.UopsRetired, 2000, pebs)
		tasks := []ultl.Task{
			{ID: 1, FnName: "h", Uops: 400_000},
			{ID: 2, FnName: "h", Uops: 300_000},
			{ID: 3, FnName: "h", Uops: 200_000},
		}
		if _, err := ultl.Run(c, ultl.DefaultConfig(), tasks); err != nil {
			b.Fatal(err)
		}
		set := trace.NewSet(m, trace.NewMarkerLog(1, 0), pebs.Samples())
		a, err := core.IntegrateByRegister(set, pmu.R13, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(a.Items)), "items-recovered")
		}
	}
}

// BenchmarkSecVCResetPlanner regenerates the §V-C analysis: calibration,
// interval/reset linearity, and budget-driven reset selection.
func BenchmarkSecVCResetPlanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.SecVC("gcc", []float64{0.05})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.LinearityR2, "interval-R2")
			b.ReportMetric(float64(r.Plans[0].Reset), "R-for-5pct")
		}
	}
}

// BenchmarkSecVDCacheMissMode regenerates the §V-D extension: per-item,
// per-function cache-miss magnitudes from LLC-miss sampling.
func BenchmarkSecVDCacheMissMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := qapp.Run(qapp.Config{}, qapp.PaperQuerySequence())
		if err != nil {
			b.Fatal(err)
		}
		_ = res
		// Rerun with an LLC-miss counter (qapp wires UopsRetired; use the
		// event-count path over a fresh run with a dedicated counter).
		m := sim.MustNew(sim.Config{Cores: 1})
		f := m.Syms.MustRegister("f", 4096)
		pebs := pmu.NewPEBS(pmu.PEBSConfig{})
		c := m.Core(0)
		const r = 8
		c.PMU.MustProgram(pmu.LLCMisses, r, pebs)
		log := trace.NewMarkerLog(1, 0)
		for id := uint64(1); id <= 2; id++ {
			log.Mark(c, id, trace.ItemBegin)
			span := 400 << (3 * (id - 1)) // item 2 walks 8x the memory
			c.Call(f, func() {
				for p := 0; p < span; p++ {
					c.Load(uint64(p) * 64)
				}
			})
			log.Mark(c, id, trace.ItemEnd)
		}
		set := trace.NewSet(m, log, pebs.Samples())
		counts, err := core.EventCounts(set, pmu.LLCMisses, r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(counts) > 0 {
			b.ReportMetric(float64(counts[len(counts)-1].EstOccurrences), "item2-llc-misses")
		}
	}
}
