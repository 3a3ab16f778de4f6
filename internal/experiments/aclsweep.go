package experiments

import (
	"fmt"
	"io"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/dpdkapp"
	"repro/internal/report"
	"repro/internal/stats"
)

// PaperResets are the reset values swept in Figs. 9 and 10.
var PaperResets = []uint64{8000, 12000, 16000, 20000, 24000}

// ACLSweepConfig parameterizes the §IV-C experiment family.
type ACLSweepConfig struct {
	// Packets per run; the paper averages over 10,000 runs.
	Packets int
	// Resets to sweep (default PaperResets).
	Resets []uint64

	// cls replaces the Table III classifier; tests pass small rule sets.
	cls *acl.Classifier
}

// ACLRun is one profiled pipeline execution at a fixed reset value.
type ACLRun struct {
	Reset    uint64
	Result   *dpdkapp.Result
	Analysis *core.Analysis
}

// ACLSweep holds everything Figs. 9 and 10 and the data-rate table derive
// from: one profiled run per reset value, one instrumented-baseline run, and
// one unprofiled run (L*).
type ACLSweep struct {
	Config   ACLSweepConfig
	Runs     []ACLRun
	Baseline *dpdkapp.Result
	Plain    *dpdkapp.Result
}

// RunACLSweep executes the full sweep. The classifier is compiled once and
// shared across runs, as the same DPDK process would be.
func RunACLSweep(cfg ACLSweepConfig) (*ACLSweep, error) {
	if cfg.Packets <= 0 {
		cfg.Packets = 10_000
	}
	if len(cfg.Resets) == 0 {
		cfg.Resets = PaperResets
	}
	var err error
	cls := cfg.cls
	if cls == nil {
		if cls, err = acl.Build(acl.PaperRuleSet(), acl.PaperBuildConfig()); err != nil {
			return nil, err
		}
	}
	packets := dpdkapp.PaperPacketSequence(cfg.Packets)
	sweep := &ACLSweep{Config: cfg}

	for _, reset := range cfg.Resets {
		res, err := dpdkapp.Run(dpdkapp.Config{Classifier: cls, Reset: reset, Markers: true}, packets)
		if err != nil {
			return nil, err
		}
		a, err := core.Integrate(res.Set, core.Options{})
		if err != nil {
			return nil, err
		}
		sweep.Runs = append(sweep.Runs, ACLRun{Reset: reset, Result: res, Analysis: a})
	}
	if sweep.Baseline, err = dpdkapp.Run(dpdkapp.Config{Classifier: cls, BaselineProbe: true}, packets); err != nil {
		return nil, err
	}
	if sweep.Plain, err = dpdkapp.Run(dpdkapp.Config{Classifier: cls}, packets); err != nil {
		return nil, err
	}
	return sweep, nil
}

// Fig9Cell is one (reset value, packet type) point: mean ± stddev of the
// estimated rte_acl_classify elapsed time.
type Fig9Cell struct {
	MeanUs float64
	StdUs  float64
	// N is the number of packets with an estimable span.
	N int
}

// Fig9Result reproduces Fig. 9.
type Fig9Result struct {
	Resets []uint64
	// ByType[t][i] is the estimate for packet type t at Resets[i].
	ByType [acl.NumPacketTypes][]Fig9Cell
	// Baseline[t] is the golden instrumented measurement.
	Baseline [acl.NumPacketTypes]Fig9Cell
}

// Fig9 derives the estimated per-packet rte_acl_classify elapsed times.
func (s *ACLSweep) Fig9() *Fig9Result {
	out := &Fig9Result{}
	for _, run := range s.Runs {
		out.Resets = append(out.Resets, run.Reset)
		var perType [acl.NumPacketTypes][]float64
		for i := range run.Analysis.Items {
			it := &run.Analysis.Items[i]
			fs := it.Func(dpdkapp.FnClassify)
			if !fs.Estimable() {
				continue
			}
			pt := dpdkapp.PacketTypeOf(it.ID)
			perType[pt] = append(perType[pt], run.Analysis.CyclesToMicros(fs.Cycles()))
		}
		for t := range perType {
			sum := stats.Summarize(perType[t])
			out.ByType[t] = append(out.ByType[t], Fig9Cell{MeanUs: sum.Mean, StdUs: sum.Stddev, N: sum.N})
		}
	}
	var basePerType [acl.NumPacketTypes][]float64
	for _, b := range s.Baseline.Baseline {
		pt := dpdkapp.PacketTypeOf(b.ID)
		basePerType[pt] = append(basePerType[pt], s.Baseline.CyclesToMicros(b.Cycles))
	}
	for t := range basePerType {
		sum := stats.Summarize(basePerType[t])
		out.Baseline[t] = Fig9Cell{MeanUs: sum.Mean, StdUs: sum.Stddev, N: sum.N}
	}
	return out
}

// Render prints Fig. 9's series.
func (r *Fig9Result) Render(w io.Writer) {
	t := report.Table{
		Title:   "Fig. 9 — estimated per-packet elapsed time of rte_acl_classify (mean ± std, us)",
		Headers: []string{"reset", "type A", "type B", "type C"},
	}
	cell := func(c Fig9Cell) string {
		return fmt.Sprintf("%.2f ± %.2f (n=%d)", c.MeanUs, c.StdUs, c.N)
	}
	for i, reset := range r.Resets {
		t.AddRow(report.U(reset),
			cell(r.ByType[acl.TypeA][i]),
			cell(r.ByType[acl.TypeB][i]),
			cell(r.ByType[acl.TypeC][i]))
	}
	t.AddRow("baseline",
		cell(r.Baseline[acl.TypeA]),
		cell(r.Baseline[acl.TypeB]),
		cell(r.Baseline[acl.TypeC]))
	t.Render(w)
	a, c := r.Baseline[acl.TypeA].MeanUs, r.Baseline[acl.TypeC].MeanUs
	fmt.Fprintf(w, "\n  performance fluctuates by more than 100%%: type A %.1f us vs type C %.1f us (%.1fx)\n", a, c, a/c)
}

// Fig10Result reproduces Fig. 10: the latency increase caused by profiling,
// per reset value, measured end to end by the hardware tester.
type Fig10Result struct {
	Resets []uint64
	// OverheadUs[i] is L_R − L* at Resets[i].
	OverheadUs []float64
	// BaseUs is L*, the mean latency with no profiling applied.
	BaseUs float64
	// SamplesPerPacket aids interpretation.
	SamplesPerPacket []float64
}

// Fig10 derives the overhead series.
func (s *ACLSweep) Fig10() *Fig10Result {
	out := &Fig10Result{BaseUs: s.Plain.MeanLatencyMicros()}
	for _, run := range s.Runs {
		out.Resets = append(out.Resets, run.Reset)
		out.OverheadUs = append(out.OverheadUs, run.Result.MeanLatencyMicros()-out.BaseUs)
		out.SamplesPerPacket = append(out.SamplesPerPacket,
			float64(run.Result.SampleCount)/float64(len(run.Result.Latencies)))
	}
	return out
}

// Render prints Fig. 10's series.
func (r *Fig10Result) Render(w io.Writer) {
	t := report.Table{
		Title:   "Fig. 10 — overhead of the method (latency increase) per reset value",
		Headers: []string{"reset", "overhead us", "samples/packet"},
	}
	for i, reset := range r.Resets {
		t.AddRow(report.U(reset), report.F(r.OverheadUs[i], 2), report.F(r.SamplesPerPacket[i], 1))
	}
	t.Render(w)
	fmt.Fprintf(w, "\n  unprofiled mean latency L* = %.2f us; overhead falls as R grows\n", r.BaseUs)
}

// DataRateRow is one row of the §IV-C3 in-text table.
type DataRateRow struct {
	Reset uint64
	// MBps is the PEBS record volume per second on the sampled core.
	MBps float64
	// PerCPU16 is the ×16-core extrapolation (GB/s).
	PerCPU16GBps float64
	// PctOfMemBW is PerCPU16 as a percentage of the Xeon Platinum 8153's
	// 127.8 GB/s socket memory bandwidth.
	PctOfMemBW float64
}

// DataRateResult reproduces the §IV-C3 sample-volume discussion.
type DataRateResult struct {
	Rows []DataRateRow
}

// memBWGBps is the DDR4-2666 × 6-channel socket bandwidth the paper cites.
const memBWGBps = 127.8

// DataRate derives per-reset PEBS data volumes from the sweep.
func (s *ACLSweep) DataRate() *DataRateResult {
	out := &DataRateResult{}
	for _, run := range s.Runs {
		// The ACL core spins continuously (DPDK-style), so its active time
		// is the span of its marker stream: first Begin to last End.
		ms := run.Result.Set.Markers
		if len(ms) < 2 {
			continue
		}
		var lo, hi uint64 = ms[0].TSC, ms[0].TSC
		for _, m := range ms {
			if m.TSC < lo {
				lo = m.TSC
			}
			if m.TSC > hi {
				hi = m.TSC
			}
		}
		seconds := float64(hi-lo) / float64(run.Result.FreqHz)
		mbps := float64(run.Result.SampleBytes) / seconds / 1e6
		per16 := mbps * 16 / 1000
		out.Rows = append(out.Rows, DataRateRow{
			Reset:        run.Reset,
			MBps:         mbps,
			PerCPU16GBps: per16,
			PctOfMemBW:   per16 / memBWGBps * 100,
		})
	}
	return out
}

// Render prints the data-rate table with the paper's reference numbers.
func (r *DataRateResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "§IV-C3 — PEBS sample volume (paper: 270/194/153/125/106 MB/s for R=8k..24k)",
		Headers: []string{"reset", "MB/s per core", "GB/s per 16-core CPU", "% of 127.8 GB/s mem BW"},
	}
	for _, row := range r.Rows {
		t.AddRow(report.U(row.Reset), report.F(row.MBps, 0), report.F(row.PerCPU16GBps, 1), report.F(row.PctOfMemBW, 1))
	}
	t.Render(w)
}
