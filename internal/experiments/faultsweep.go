package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/workloads/qapp"
)

// FaultSweepRow is one rung of the degradation ladder: the Fig. 8 workload
// re-analyzed after injecting a given PEBS sample-loss rate, averaged over
// Seeds independent fault placements.
type FaultSweepRow struct {
	// LossRate is the injected burst-loss rate (faults.Plan.SampleLossRate).
	LossRate float64
	// MeanSamplesLost averages the actual per-seed removal count.
	MeanSamplesLost float64
	// MeanConfidence averages Item.Confidence over surviving items and seeds.
	MeanConfidence float64
	// MeanFnErrPct is the mean absolute relative error (percent) of the
	// per-function per-query estimates (f1/f2/f3 × every query) against
	// the clean-trace estimates, averaged over seeds.
	MeanFnErrPct float64
	// DetectorHits counts the seeds on which the fluctuation detector
	// still flags the paper's fluctuating queries (1 and 5).
	DetectorHits int
	// Seeds is how many independent fault placements were averaged.
	Seeds int
}

// FaultSweepResult is the accuracy-under-degradation experiment: the Fig. 8
// sweep re-run at increasing injected sample-loss rates. It answers the
// operational question the paper's deployment raises implicitly — how much
// PEBS buffer loss can the diagnosis absorb before its per-function
// estimates and its fluctuation verdicts stop being trustworthy?
type FaultSweepResult struct {
	Reset uint64
	Rows  []FaultSweepRow
}

// faultSweepSeeds is how many independent fault placements each loss rate
// is averaged over — the trace is small, so a single placement is noisy.
const faultSweepSeeds = 8

// FaultSweep runs the Fig. 8 workload once, then integrates seeded
// degraded copies of its trace at each loss rate.
func FaultSweep(rates []float64) (*FaultSweepResult, error) {
	const reset = 8000
	if len(rates) == 0 {
		rates = []float64{0, 0.05, 0.10, 0.20, 0.40}
	}
	res, err := qapp.Run(qapp.Config{Reset: reset}, qapp.PaperQuerySequence())
	if err != nil {
		return nil, err
	}
	clean, err := core.Integrate(res.Set, core.Options{})
	if err != nil {
		return nil, err
	}
	seq := qapp.PaperQuerySequence()
	fnEstimates := func(a *core.Analysis) map[uint64][3]float64 {
		m := make(map[uint64][3]float64, len(a.Items))
		for _, q := range seq {
			it := a.Item(q.ID)
			if it == nil {
				continue
			}
			m[q.ID] = [3]float64{
				a.CyclesToMicros(it.Func(qapp.FnF1).Cycles()),
				a.CyclesToMicros(it.Func(qapp.FnF2).Cycles()),
				a.CyclesToMicros(it.Func(qapp.FnF3).Cycles()),
			}
		}
		return m
	}
	ref := fnEstimates(clean)

	out := &FaultSweepResult{Reset: reset}
	for _, rate := range rates {
		row := FaultSweepRow{LossRate: rate, Seeds: faultSweepSeeds}
		for seed := uint64(1); seed <= faultSweepSeeds; seed++ {
			set := res.Set
			var rep faults.Report
			if rate > 0 {
				// Short bursts: the qapp trace is only a few hundred
				// samples, so debug-store-sized bursts would quantize the
				// sweep into all-or-nothing.
				set, rep = faults.Perturb(res.Set, faults.Plan{
					Seed: seed, SampleLossRate: rate, BurstLen: 4,
				})
			}
			a, err := core.Integrate(set, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("experiments: integrate at loss %.2f seed %d: %w", rate, seed, err)
			}
			row.MeanSamplesLost += float64(rep.SamplesDropped) / faultSweepSeeds

			conf := 0.0
			for i := range a.Items {
				conf += a.Items[i].Confidence
			}
			if len(a.Items) > 0 {
				conf /= float64(len(a.Items))
			}
			row.MeanConfidence += conf / faultSweepSeeds

			var errSum float64
			var errN int
			est := fnEstimates(a)
			// Sum in query order: a float sum in map order can differ in
			// its last bits from run to run.
			for _, q := range seq {
				want, ok := ref[q.ID]
				got, ok2 := est[q.ID]
				if !ok || !ok2 {
					continue
				}
				for i := range want {
					if want[i] > 0 {
						errSum += abs(got[i]-want[i]) / want[i]
						errN++
					}
				}
			}
			if errN > 0 {
				row.MeanFnErrPct += 100 * errSum / float64(errN) / faultSweepSeeds
			}

			groups := core.DetectFluctuations(a, func(it *core.Item) string {
				return fmt.Sprintf("n=%d", seq[it.ID-1].N)
			}, 3, 0.5)
			hit := map[uint64]bool{}
			for _, g := range groups {
				for _, it := range g.Outliers {
					hit[it.ID] = true
				}
			}
			if hit[1] && hit[5] {
				row.DetectorHits++
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Render draws the accuracy-vs-loss table.
func (r *FaultSweepResult) Render(w io.Writer) {
	t := report.Table{
		Title: fmt.Sprintf("Fault sweep — Fig. 8 accuracy vs injected PEBS sample loss (R=%d, %d seeds/rate)",
			r.Reset, faultSweepSeeds),
		Headers: []string{"loss rate", "samples lost", "mean conf", "fn err %", "detector hits"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			report.F(row.LossRate*100, 0)+"%",
			report.F(row.MeanSamplesLost, 1),
			report.F(row.MeanConfidence, 3),
			report.F(row.MeanFnErrPct, 1),
			fmt.Sprintf("%d/%d", row.DetectorHits, row.Seeds),
		)
	}
	t.Render(w)
	fmt.Fprintf(w, "\n  detector hits: seeds on which queries 1 and 5 (the paper's fluctuating pair) are still flagged\n")
}
