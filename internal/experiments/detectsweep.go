package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/hashx"
	"repro/internal/pmu"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// detectSweepFns is the request pipeline of the detection workload: six
// stages with deliberately close per-item costs, so a dilated stage never
// dominates the item outright and the cause ranker has to separate it
// from five plausible co-suspects. Costs are in retired uops (= cycles at
// the default rate); the smallest stage is still >10% of the item, which
// keeps a 2× dilation of any stage above the detector's default
// MinRelative floor.
var detectSweepFns = []struct {
	name string
	uops uint64
}{
	{"parse_request", 4000},
	{"acl_match", 4500},
	{"table_lookup", 5000},
	{"checksum", 5500},
	{"compress", 6000},
	{"render_reply", 6500},
}

// The published table's shape: 700 items per trial (the injected onset
// sits at 0.5 of the trace, leaving ~350 pre-change items for window and
// baseline warmup) and five severity rungs, each trial dilating one stage
// by the rung's factor from the onset on. The detector fires at 0.05
// MinRelative, below the collector's 0.10 default, because the sweep
// measures the detection floor: the table should show where the statistic
// runs out, not where the relative clamp begins.
const (
	detectSweepItems       = 700
	detectSweepMinRelative = 0.05
)

var detectSweepFactors = []float64{1.1, 1.25, 1.5, 2, 3}

// DetectSweepRung aggregates one severity rung over all trials (one trial
// per pipeline stage, each stage taking a turn as the dilated target).
type DetectSweepRung struct {
	// Factor is the injected dilation.
	Factor float64
	// Trials ran; Detected of them fired at least one post-onset event.
	Trials, Detected int
	// MeanLatencyItems is the mean detection latency over detected trials:
	// items between the first affected item and the fire, inclusive.
	MeanLatencyItems float64
	// Top1/Top3 count detected trials whose first post-onset event blamed
	// the injected stage at rank 0 / within the ranked verdicts.
	Top1, Top3 int
}

// Recall is Detected/Trials.
func (r DetectSweepRung) Recall() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Detected) / float64(r.Trials)
}

// DetectSweepResult is the detector validation experiment: the faults
// package injects a known slowdown (fnslow ground truth) into a known
// pipeline stage at a known onset, and the table reports whether the
// online detector found it, how fast, and whether the verdicts blamed the
// right function.
type DetectSweepResult struct {
	Rungs []DetectSweepRung
	// CleanTrials ran without any injection; CleanChangepoints counts
	// events fired on them (the false-positive budget: must be zero).
	CleanTrials       int
	CleanChangepoints uint64
}

// Render prints the sweep as a table.
func (r *DetectSweepResult) Render(w io.Writer) {
	t := report.Table{
		Title: "online detection vs injected slowdown severity (fnslow ground truth, onset at 0.5)",
		Headers: []string{"factor", "trials", "detected", "recall",
			"mean latency items", "top-1 blame", "top-3 blame"},
	}
	for _, rung := range r.Rungs {
		lat := "-"
		if rung.Detected > 0 {
			lat = report.F(rung.MeanLatencyItems, 1)
		}
		t.AddRow(report.F(rung.Factor, 2), report.I(rung.Trials), report.I(rung.Detected),
			report.F(rung.Recall()*100, 0)+"%", lat,
			report.I(rung.Top1), report.I(rung.Top3))
	}
	t.Render(w)
	fmt.Fprintf(w, "clean runs: %d trials, %d change events (want 0)\n",
		r.CleanTrials, r.CleanChangepoints)
}

// detectWorkload generates one trial's clean trace: Items requests through
// the six-stage pipeline on one core, each stage's cost jittered ±3% by a
// seeded splitmix64 stream so the per-item latency series has realistic
// noise for the MAD-based threshold to calibrate against.
func detectWorkload(items int, seed uint64) *trace.Set {
	mach := sim.MustNew(sim.Config{Cores: 1})
	fns := make([]*symtab.Fn, len(detectSweepFns))
	for i, f := range detectSweepFns {
		fns[i] = mach.Syms.MustRegister(f.name, 4096)
	}
	pebs := pmu.NewPEBS(pmu.PEBSConfig{})
	mach.Core(0).PMU.MustProgram(pmu.UopsRetired, 1000, pebs)
	log := trace.NewMarkerLog(1, 0)
	rng := hashx.SplitMix64{State: seed ^ 0x64657465637473} // "detects"
	mach.MustSpawn(0, func(c *sim.Core) {
		for id := uint64(1); id <= uint64(items); id++ {
			log.Mark(c, id, trace.ItemBegin)
			for i, f := range detectSweepFns {
				// ±3% cost jitter per stage per item.
				jitter := f.uops * (rng.Next() % 61) / 1000
				c.Call(fns[i], func() { c.Exec(f.uops - f.uops*3/100 + jitter) })
			}
			log.Mark(c, id, trace.ItemEnd)
			c.Exec(500)
		}
	})
	mach.Wait()
	return trace.NewSet(mach, log, pebs.Samples())
}

// detectTrial feeds one (possibly perturbed) trace through the batch
// integrator and a fresh detector in (EndTSC, core) completion order — the
// order the online collector sees items in — and returns every verdict it
// emitted, its lifetime counters, and the feed-ordered items.
func detectTrial(set *trace.Set, cfg detect.Config) ([]detect.Verdict, detect.Stats, []core.Item, error) {
	a, err := core.Integrate(set, core.Options{})
	if err != nil {
		return nil, detect.Stats{}, nil, err
	}
	items := append([]core.Item(nil), a.Items...)
	slices.SortStableFunc(items, func(x, y core.Item) int {
		if c := cmp.Compare(x.EndTSC, y.EndTSC); c != 0 {
			return c
		}
		return cmp.Compare(x.Core, y.Core)
	})
	var verdicts []detect.Verdict
	cfg.FreqHz = set.FreqHz
	cfg.OnVerdict = func(v detect.Verdict) { verdicts = append(verdicts, v) }
	det, err := detect.New(cfg)
	if err != nil {
		return nil, detect.Stats{}, nil, err
	}
	for i := range items {
		det.Update(&items[i])
	}
	return verdicts, det.Stats(), items, nil
}

// DetectSweep runs the detector validation: for every severity rung and
// every pipeline stage, inject a fnslow dilation of that stage at onset
// 0.5 and score the verdict stream against the known ground truth.
func DetectSweep() (*DetectSweepResult, error) {
	return detectSweep(detectSweepItems, detectSweepFactors)
}

// detectSweep runs DetectSweep over items per trial and the given rungs.
func detectSweep(items int, factors []float64) (*DetectSweepResult, error) {
	dcfg := detect.Config{Source: "detectsweep", MinRelative: detectSweepMinRelative}

	res := &DetectSweepResult{}

	// One clean trace per target stage, reused across every rung — the
	// jitter stream differs per trial so rungs are not all scored against
	// one noise realization.
	sets := make([]*trace.Set, len(detectSweepFns))
	for i := range detectSweepFns {
		sets[i] = detectWorkload(items, uint64(i+1))
	}

	// False-positive budget: the clean traces must produce zero events.
	for _, set := range sets {
		_, st, _, err := detectTrial(set, dcfg)
		if err != nil {
			return nil, err
		}
		res.CleanTrials++
		res.CleanChangepoints += st.Changepoints
	}

	for _, factor := range factors {
		rung := DetectSweepRung{Factor: factor}
		var latSum float64
		for ti, target := range detectSweepFns {
			perturbed, rep := faults.Perturb(sets[ti], faults.Plan{
				FnSlowName:   target.name,
				FnSlowFactor: factor,
				FnSlowAfter:  0.5,
			})
			if rep.FnSlowRuns == 0 {
				return nil, fmt.Errorf("detectsweep: fnslow %s ×%g injected nothing", target.name, factor)
			}
			verdicts, _, fed, err := detectTrial(perturbed, dcfg)
			if err != nil {
				return nil, err
			}
			rung.Trials++

			// Ground truth: the first feed ordinal whose item ends after the
			// injected onset is the first item that can carry dilated cycles.
			ordOf := make(map[uint64]int, len(fed))
			onsetOrd := -1
			for i := range fed {
				ordOf[fed[i].ID] = i
				if onsetOrd < 0 && fed[i].EndTSC >= rep.FnSlowOnsetTSC {
					onsetOrd = i
				}
			}
			if onsetOrd < 0 {
				return nil, fmt.Errorf("detectsweep: onset TSC %d past every item", rep.FnSlowOnsetTSC)
			}

			// Score the first event fired on post-onset items.
			var event uint64
			top1, top3, fired := false, false, false
			var latency int
			for _, v := range verdicts {
				ord, ok := ordOf[v.Window.LastItem]
				if !ok || ord < onsetOrd {
					continue
				}
				if !fired {
					fired = true
					event = v.Event
					latency = ord - onsetOrd + 1
				}
				if v.Event != event {
					continue
				}
				if v.Function == target.name {
					top3 = true
					if v.Rank == 0 {
						top1 = true
					}
				}
			}
			if fired {
				rung.Detected++
				latSum += float64(latency)
				if top1 {
					rung.Top1++
				}
				if top3 {
					rung.Top3++
				}
			}
		}
		if rung.Detected > 0 {
			rung.MeanLatencyItems = latSum / float64(rung.Detected)
		}
		res.Rungs = append(res.Rungs, rung)
	}
	return res, nil
}
