package experiments

import (
	"fmt"
	"io"

	"repro/internal/acl"
	"repro/internal/dataplane"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads/dpchain"
)

// DPSweep validates the detector against the dataplane function chain's
// organic fluctuation mechanisms. Where detectsweep injects synthetic
// fnslow dilations into a fixed-cost pipeline, dpsweep perturbs the
// workload itself — a rule push widens the acl0 walk, a flow-cache cold
// burst re-exposes it, a traffic shift walks deeper routes — and asks
// whether the online detector blames the stage that actually absorbed
// the cost. Two fnslow trials on route0_lookup cross-check that the
// organic scoring matches the synthetic ground-truth path.

// dpsweep runs 800 packets per scenario (onsets sit at 0.5, leaving ~400
// pre-change items for window and baseline warmup) under the collector's
// production MinRelative of 0.10: it validates organic shifts against the
// deployed sensitivity, not the detection floor.
const (
	dpSweepPackets     = 800
	dpSweepMinRelative = 0.10
)

// DPSweepScenario is one scenario's outcome.
type DPSweepScenario struct {
	// Name and Mechanism describe the perturbation; Expect is the stage
	// function ground truth should blame ("" = clean scenario, expect no
	// events at all).
	Name, Mechanism, Expect string
	// Events counts change events fired on post-onset items (clean
	// scenarios count the whole run).
	Events int
	// Detected: at least one post-onset event fired. Top1/Top3: the first
	// such event blamed Expect at rank 0 / anywhere in its verdicts.
	Detected, Top1, Top3 bool
	// ExpectMiss marks a scenario whose shift sits below the production
	// sensitivity (Sigma/MinRelative) on purpose — it documents the
	// detection floor, and "not detected" is the passing outcome.
	ExpectMiss bool
	// LatencyItems is items from onset to first fire, inclusive.
	LatencyItems int
	// Blamed is the rank-0 function of the first post-onset event.
	Blamed string
	// DeltaNs is that verdict's per-item gain.
	DeltaNs int64
}

// DPSweepResult is the experiment's published table.
type DPSweepResult struct {
	Scenarios []DPSweepScenario
	// CleanEvents sums events across clean scenarios (must be zero).
	CleanEvents int
}

// Render prints the sweep as a table.
func (r *DPSweepResult) Render(w io.Writer) {
	t := report.Table{
		Title: "online detection vs organic dataplane fluctuations (chain: parse → flow → acl0 → route0 → emit)",
		Headers: []string{"scenario", "mechanism", "expect blame", "events",
			"top-1", "blamed", "latency items", "delta ns/item"},
	}
	for _, s := range r.Scenarios {
		expect, top1, blamed, lat, delta := s.Expect, "-", "-", "-", "-"
		if s.Expect == "" {
			expect = "(none)"
		}
		if s.ExpectMiss {
			expect = "(below floor)"
		}
		if s.Detected {
			top1 = "no"
			if s.Top1 {
				top1 = "yes"
			}
			blamed = s.Blamed
			lat = report.I(s.LatencyItems)
			delta = report.I(int(s.DeltaNs))
		}
		t.AddRow(s.Name, s.Mechanism, expect, report.I(s.Events), top1, blamed, lat, delta)
	}
	t.Render(w)
	fmt.Fprintf(w, "clean scenarios fired %d change events (want 0)\n", r.CleanEvents)
}

// dpScenario bundles a runnable scenario with its ground truth.
type dpScenario struct {
	name, mechanism, expect string
	// expectAlt is a second acceptable rank-0 blame, for mechanisms that
	// genuinely re-expose two stages at once (cache-cold).
	expectAlt string
	// expectMiss: see DPSweepScenario.ExpectMiss.
	expectMiss bool
	// cfg is the scenario's pipeline; the onset it sets (ChurnAt, ColdAt
	// or SkewAt), if any, is dpOnset.
	cfg dataplane.PipelineConfig
	// fnslow, if set, dilates route0 synthetically by this factor from
	// mid-run instead.
	fnslow float64
}

const dpOnset = 0.5

// dpScenarios builds the published scenario list over the dpchain spec.
func dpScenarios() ([]dpScenario, error) {
	// The cache-warming transient (all-miss start decaying to the steady
	// hit rate) is real but uninteresting; warm off-trace so scenarios
	// measure steady state.
	cached := dpchain.BaseConfig(1, dpSweepPackets)
	cached.Warmup = 256
	uncached := dpchain.BaseConfig(1, dpSweepPackets)
	uncached.CacheEntries = 0
	uncached.Gen.Flows = 0
	uncached.Gen.FreshEvery = 0
	// The fnslow cross-checks dilate route0 synthetically, so they use a
	// homogeneous all-v4 mix: organic per-packet spread (v6 trie depth,
	// VLAN parse cost) is the thing being *excluded*, leaving attribution
	// itself under test.
	uniform := uncached
	uniform.Gen.V6Frac, uniform.Gen.VLANFrac, uniform.Gen.DeepDstFrac = 0, 0, 0

	// The policy push: both policies chunk into small tries, so the extra
	// rules add tries.
	churn := uncached
	churn.ChurnAt = dpOnset
	build := acl.BuildConfig{MaxTries: 8, MaxAtomsPerTrie: 24}
	var err error
	if churn.Policy, err = dataplane.NewPolicy(dpchain.Policy(), dpchain.Routes(), build); err != nil {
		return nil, err
	}
	if churn.Churn, err = dataplane.NewPolicy(dpchain.ChurnRules(120), dpchain.Routes(), build); err != nil {
		return nil, err
	}
	cold := cached
	cold.ColdAt = dpOnset
	// v6-heavy so the skew moves most packets onto the expensive stride-8
	// deep walk; a v4 deep route is only one extended probe, too small to
	// drag the per-item median on its own.
	skew := uncached
	skew.Gen.V6Frac = 0.7
	skew.SkewAt = dpOnset
	skew.SkewDeepFrac = 0.95

	return []dpScenario{
		{name: "clean-cached", mechanism: "steady traffic, warm flow cache", cfg: cached},
		{name: "clean-nocache", mechanism: "steady traffic, every packet walks", cfg: uncached},
		{
			name: "rule-churn", mechanism: "policy push: 120 extra rules, wider walk",
			expect: dataplane.FnACL, cfg: churn,
		},
		{
			// A cache hit returns the full cached verdict, skipping classify
			// AND route; going cold re-exposes both, so either stage is a
			// correct root cause — acl0 is primary (it gains more).
			name: "cache-cold", mechanism: "flow cache flushed+disabled mid-run",
			expect: dataplane.FnACL, expectAlt: dataplane.FnRoute, cfg: cold,
		},
		{
			name: "depth-skew", mechanism: "v6-heavy traffic shifts to deep-route dsts",
			expect: dataplane.FnRoute, cfg: skew,
		},
		{
			// route0 is ~14% of a uniform item; doubling it shifts the
			// per-item median by about the MinRelative floor, and the 5σ
			// MAD criterion holds it under. Kept as the floor marker: the
			// smallest route regression dpsweep documents as NOT caught at
			// production sensitivity.
			name: "fnslow-route-2x", mechanism: "synthetic floor marker: route0 ×2",
			expect: dataplane.FnRoute, expectMiss: true, cfg: uniform, fnslow: 2,
		},
		{
			name: "fnslow-route-3x", mechanism: "synthetic cross-check: route0 ×3",
			expect: dataplane.FnRoute, cfg: uniform, fnslow: 3,
		},
	}, nil
}

// run traces the scenario, insisting the chain stayed truthful — a sweep
// over a broken matcher would validate nothing — and returns the trace and
// the first post-onset item ID (0 for clean scenarios).
func (sc *dpScenario) run() (*trace.Set, uint64, error) {
	res, err := dataplane.Run(sc.cfg)
	if err != nil {
		return nil, 0, err
	}
	if err := res.VerifyTruth(); err != nil {
		return nil, 0, err
	}
	if sc.fnslow > 0 {
		return dpFnslow(res.Set, sc.fnslow)
	}
	if sc.cfg.ChurnAt+sc.cfg.ColdAt+sc.cfg.SkewAt > 0 {
		return res.Set, uint64(dpOnset*dpSweepPackets) + 1, nil
	}
	return res.Set, 0, nil
}

// dpFnslow injects a synthetic route0 dilation into a clean run's trace
// and returns the first packet ID whose end falls past the onset.
func dpFnslow(set *trace.Set, factor float64) (*trace.Set, uint64, error) {
	perturbed, rep := faults.Perturb(set, faults.Plan{
		FnSlowName:   dataplane.FnRoute,
		FnSlowFactor: factor,
		FnSlowAfter:  dpOnset,
	})
	if rep.FnSlowRuns == 0 {
		return nil, 0, fmt.Errorf("dpsweep: fnslow ×%g touched nothing", factor)
	}
	// Ground truth onset: the first item ending at or after the dilation
	// start. Single worker, so item IDs ascend with EndTSC.
	for i := range perturbed.Markers {
		m := &perturbed.Markers[i]
		if m.Kind == trace.ItemEnd && m.TSC >= rep.FnSlowOnsetTSC {
			return perturbed, m.Item, nil
		}
	}
	return nil, 0, fmt.Errorf("dpsweep: onset TSC %d past every item", rep.FnSlowOnsetTSC)
}

// DPSweep runs every scenario and scores the verdict stream against the
// chain's ground truth.
func DPSweep() (*DPSweepResult, error) {
	dcfg := detect.Config{Source: "dpsweep", MinRelative: dpSweepMinRelative}

	scenarios, err := dpScenarios()
	if err != nil {
		return nil, fmt.Errorf("dpsweep: %w", err)
	}
	res := &DPSweepResult{}
	for _, sc := range scenarios {
		set, onsetID, err := sc.run()
		if err != nil {
			return nil, fmt.Errorf("dpsweep %s: %w", sc.name, err)
		}
		verdicts, _, items, err := detectTrial(set, dcfg)
		if err != nil {
			return nil, fmt.Errorf("dpsweep %s: %w", sc.name, err)
		}
		out := DPSweepScenario{
			Name: sc.name, Mechanism: sc.mechanism,
			Expect: sc.expect, ExpectMiss: sc.expectMiss,
		}

		ordOf := make(map[uint64]int, len(items))
		onsetOrd := 0
		for i := range items {
			ordOf[items[i].ID] = i
			if onsetID > 0 && items[i].ID == onsetID {
				onsetOrd = i
			}
		}

		var event uint64
		seen := map[uint64]bool{}
		for _, v := range verdicts {
			ord, ok := ordOf[v.Window.LastItem]
			if !ok || ord < onsetOrd {
				continue
			}
			if !seen[v.Event] {
				seen[v.Event] = true
				out.Events++
			}
			if !out.Detected {
				out.Detected = true
				event = v.Event
				out.LatencyItems = ord - onsetOrd + 1
			}
			if v.Event != event {
				continue
			}
			if v.Rank == 0 {
				out.Blamed = v.Function
				out.DeltaNs = v.DeltaNs
				out.Top1 = v.Function == sc.expect ||
					(sc.expectAlt != "" && v.Function == sc.expectAlt)
			}
			if v.Function == sc.expect {
				out.Top3 = true
			}
		}
		if sc.expect == "" {
			res.CleanEvents += out.Events
		}
		res.Scenarios = append(res.Scenarios, out)
	}
	return res, nil
}
