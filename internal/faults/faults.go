// Package faults is the seeded, deterministic trace-perturbation layer:
// it degrades a pristine trace.Set the way real collection degrades under
// load, so the integrator's graceful-degradation contract can be pinned by
// property, fuzz, and golden tests instead of hoped for.
//
// The four fault classes model the four ways the paper's collection
// pipeline actually loses fidelity in production:
//
//   - PEBS sample loss in contiguous bursts — the debug-store buffer
//     overflows before the helper program drains it, so whole buffers of
//     consecutive records vanish at once (never i.i.d. single samples).
//   - Dropped / duplicated item-switch markers — the marking function's
//     log write is skipped under memory pressure, or a retried write lands
//     twice.
//   - Bounded per-core timestamp skew and out-of-order sample delivery —
//     per-core TSCs drift within a bounded offset, and the helper delivers
//     records in drain order, not timestamp order.
//   - Truncated traces — the traced process (or the collector) dies
//     mid-run and the tail of every stream is simply missing.
//
// Every perturbation is a pure function of (input set, Plan): the same
// Plan applied to the same set yields byte-identical output on every run,
// every platform, and every Go version, because the randomness comes from
// a self-contained splitmix64 generator rather than math/rand. That
// determinism is what lets the degraded-input equivalence property
// (Integrate(Perturb(set)) identical across runs and parallelism levels)
// be a hard test instead of a statistical one.
package faults

import (
	"fmt"
	"sort"

	"repro/internal/hashx"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/trace"
)

// Plan is one reproducible fault-injection configuration. The zero value
// injects nothing; Apply on it returns a plain copy.
type Plan struct {
	// Seed drives every random choice below. Two applications of the same
	// Plan (same Seed) to the same set are identical.
	Seed uint64

	// SampleLossRate is the target fraction of PEBS samples to drop,
	// in [0, 1). Loss is injected in contiguous bursts (see BurstLen),
	// modeling debug-store buffer overflow: when the helper misses a
	// drain deadline an entire buffer of consecutive records is lost,
	// not a random sprinkle.
	SampleLossRate float64
	// BurstLen is the length of each loss burst in samples (default 32
	// when SampleLossRate > 0). Bursts start at deterministic pseudo-random
	// positions; the final burst may be shorter if it hits end of stream.
	BurstLen int

	// MarkerDropRate is the fraction of markers to silently drop —
	// a skipped log write. Dropping a Begin orphans the following End;
	// dropping an End forces the next Begin to repair-close the item.
	MarkerDropRate float64
	// MarkerDupRate is the fraction of markers to deliver twice (same
	// item, same TSC) — a retried log write that landed both times.
	MarkerDupRate float64

	// SkewCycles bounds per-core clock skew: each core's every timestamp
	// (markers and samples alike) is shifted by a constant offset drawn
	// uniformly from [-SkewCycles, +SkewCycles]. Offsets saturate at zero
	// rather than wrapping. Within a core, order is preserved; across
	// cores, interleaving changes — which is exactly the hazard.
	SkewCycles uint64

	// ReorderWindow scrambles sample *delivery* order: within consecutive
	// windows of this many samples, positions are permuted. Timestamps are
	// untouched — this models the helper draining buffers out of order,
	// the fault a streaming consumer sees but an offline sorter does not.
	// 0 or 1 disables.
	ReorderWindow int

	// TruncateFraction simulates a crash mid-run: only events with TSC
	// within the first TruncateFraction of the trace's [min, max] TSC span
	// survive. 0 and values >= 1 disable truncation.
	TruncateFraction float64

	// FnSlowName, FnSlowFactor, and FnSlowAfter inject the phenomenon the
	// paper diagnoses rather than a collection fault: starting at
	// FnSlowAfter of the trace's TSC span, every contiguous run of samples
	// inside the named function dilates by FnSlowFactor (gaps between the
	// run's samples multiply; everything later on the same core shifts by
	// the added time). The item containing the run slows by exactly the
	// dilation, and the per-function breakdown pins the blame on
	// FnSlowName — the ground truth the detectsweep experiment scores the
	// detector against. FnSlowFactor must be positive; 0 or 1 disables
	// (factors below 1 model a speedup). FnSlowAfter in [0, 1), 0 = from
	// the start.
	FnSlowName   string
	FnSlowFactor float64
	FnSlowAfter  float64

	// Net is the network half of the plan: it perturbs wire-protocol
	// connections (see NetPlan and WrapDial), not trace sets, and is
	// ignored by Apply. ParsePlan populates it from the net* keys so
	// one spec string can degrade both the trace and its transport.
	Net NetPlan
}

// Report counts what Apply actually injected, so tests and the CLI can
// assert on (and print) the damage rather than infer it.
type Report struct {
	// SamplesDropped / LossBursts: burst sample-loss outcome.
	SamplesDropped int
	LossBursts     int
	// MarkersDropped / MarkersDuplicated: marker-stream outcome.
	MarkersDropped    int
	MarkersDuplicated int
	// CoreSkew maps core → the constant offset (in cycles, may be
	// negative) applied to every timestamp of that core.
	CoreSkew map[int32]int64
	// SamplesReordered counts samples whose delivery position moved.
	SamplesReordered int
	// MarkersTruncated / SamplesTruncated: events cut by the simulated
	// crash.
	MarkersTruncated int
	SamplesTruncated int
	// TruncateTSC is the cut timestamp (0 when truncation is disabled).
	TruncateTSC uint64
	// FnSlowRuns counts the dilated sample runs; FnSlowAddedCycles the
	// total cycles the slowdown injected; FnSlowOnsetTSC the onset
	// timestamp (all zero when the fnslow class is disabled or the named
	// function has no samples past the onset).
	FnSlowRuns        int
	FnSlowAddedCycles uint64
	FnSlowOnsetTSC    uint64
}

// String renders a one-line damage summary.
func (r Report) String() string {
	s := fmt.Sprintf(
		"faults: %d samples lost in %d bursts, %d markers dropped, %d duplicated, %d cores skewed, %d samples reordered, %d+%d events truncated",
		r.SamplesDropped, r.LossBursts, r.MarkersDropped, r.MarkersDuplicated,
		len(r.CoreSkew), r.SamplesReordered, r.MarkersTruncated, r.SamplesTruncated)
	if r.FnSlowRuns > 0 {
		s += fmt.Sprintf(", %d runs slowed by %d cycles", r.FnSlowRuns, r.FnSlowAddedCycles)
	}
	return s
}

// Perturb applies plan to set and returns a degraded copy plus the damage
// report. The input set is never mutated. Perturb(set, Plan{}) returns a
// plain copy. See Plan for the fault classes and their ordering:
// truncation runs first (a crash loses the tail of the *original*
// streams), then marker drop/dup, then sample burst loss, then per-core
// skew, then delivery reorder.
func Perturb(set *trace.Set, plan Plan) (*trace.Set, Report) {
	return plan.Apply(set)
}

// Apply implements Perturb as a method (see Perturb).
func (p Plan) Apply(set *trace.Set) (*trace.Set, Report) {
	sp := obs.StartSpan("faults.Perturb")
	defer sp.End()
	rep := Report{CoreSkew: map[int32]int64{}}
	out := &trace.Set{
		FreqHz:  set.FreqHz,
		Syms:    set.Syms,
		Markers: append([]trace.Marker(nil), set.Markers...),
		Samples: append([]pmu.Sample(nil), set.Samples...),
	}

	// Independent generator streams per fault class: adding markers to a
	// trace must not change which samples a loss burst hits. Truncation
	// needs no draws — the cut point is a pure function of the plan.
	markRNG := hashx.SplitMix64{State: p.Seed ^ 0x6d61726b65727321} // "markers!"
	lossRNG := hashx.SplitMix64{State: p.Seed ^ 0x6c6f737362757273} // "lossburs"
	skewRNG := hashx.SplitMix64{State: p.Seed ^ 0x736b657763797321} // "skewcys!"
	ordRNG := hashx.SplitMix64{State: p.Seed ^ 0x72656f7264657221}  // "reorder!"

	// The slowdown runs first, on the pristine streams: it models the
	// traced program changing behaviour, which collection faults then
	// degrade — never the other way around.
	p.slowFunction(out, &rep)
	p.truncate(out, &rep)
	p.perturbMarkers(out, &markRNG, &rep)
	p.loseSampleBursts(out, &lossRNG, &rep)
	p.skewCores(out, &skewRNG, &rep)
	p.reorderSamples(out, &ordRNG, &rep)
	rep.publish(obs.Default())
	return out, rep
}

// publish accumulates the injected damage into the self-telemetry
// counters, so a soak run that perturbs traces continuously exposes its
// cumulative injected-fault budget on /metrics.
func (r Report) publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("fluct_faults_perturbs_total").Inc()
	reg.Counter("fluct_faults_samples_dropped_total").Add(uint64(r.SamplesDropped))
	reg.Counter("fluct_faults_loss_bursts_total").Add(uint64(r.LossBursts))
	reg.Counter("fluct_faults_markers_dropped_total").Add(uint64(r.MarkersDropped))
	reg.Counter("fluct_faults_markers_duplicated_total").Add(uint64(r.MarkersDuplicated))
	reg.Counter("fluct_faults_samples_reordered_total").Add(uint64(r.SamplesReordered))
	reg.Counter("fluct_faults_events_truncated_total").Add(uint64(r.MarkersTruncated + r.SamplesTruncated))
	reg.Counter("fluct_faults_fnslow_runs_total").Add(uint64(r.FnSlowRuns))
	reg.Counter("fluct_faults_fnslow_cycles_total").Add(r.FnSlowAddedCycles)
}

// truncate cuts both streams at TruncateFraction of the global TSC span.
func (p Plan) truncate(out *trace.Set, rep *Report) {
	if p.TruncateFraction <= 0 || p.TruncateFraction >= 1 {
		return
	}
	lo, hi, any := uint64(0), uint64(0), false
	scan := func(tsc uint64) {
		if !any {
			lo, hi, any = tsc, tsc, true
			return
		}
		if tsc < lo {
			lo = tsc
		}
		if tsc > hi {
			hi = tsc
		}
	}
	for _, m := range out.Markers {
		scan(m.TSC)
	}
	for i := range out.Samples {
		scan(out.Samples[i].TSC)
	}
	if !any || hi == lo {
		return
	}
	cut := lo + uint64(float64(hi-lo)*p.TruncateFraction)
	rep.TruncateTSC = cut
	ms := out.Markers[:0]
	for _, m := range out.Markers {
		if m.TSC <= cut {
			ms = append(ms, m)
		} else {
			rep.MarkersTruncated++
		}
	}
	out.Markers = ms
	ss := out.Samples[:0]
	for i := range out.Samples {
		if out.Samples[i].TSC <= cut {
			ss = append(ss, out.Samples[i])
		} else {
			rep.SamplesTruncated++
		}
	}
	out.Samples = ss
}

// perturbMarkers drops and duplicates markers. Decisions are drawn per
// marker in input order, so the same plan hits the same markers.
func (p Plan) perturbMarkers(out *trace.Set, rng *hashx.SplitMix64, rep *Report) {
	if p.MarkerDropRate <= 0 && p.MarkerDupRate <= 0 {
		return
	}
	ms := make([]trace.Marker, 0, len(out.Markers))
	for _, m := range out.Markers {
		if p.MarkerDropRate > 0 && rng.Float64() < p.MarkerDropRate {
			rep.MarkersDropped++
			continue
		}
		ms = append(ms, m)
		if p.MarkerDupRate > 0 && rng.Float64() < p.MarkerDupRate {
			ms = append(ms, m)
			rep.MarkersDuplicated++
		}
	}
	out.Markers = ms
}

// loseSampleBursts drops contiguous runs of samples. Burst starts are
// Bernoulli per position with probability rate/burstLen, giving an
// expected overall loss of ~rate while keeping losses contiguous.
func (p Plan) loseSampleBursts(out *trace.Set, rng *hashx.SplitMix64, rep *Report) {
	if p.SampleLossRate <= 0 || len(out.Samples) == 0 {
		return
	}
	burst := p.BurstLen
	if burst <= 0 {
		burst = 32
	}
	startProb := p.SampleLossRate / float64(burst)
	kept := out.Samples[:0]
	remaining := 0 // samples left to drop in the current burst
	for i := range out.Samples {
		if remaining == 0 && rng.Float64() < startProb {
			remaining = burst
			rep.LossBursts++
		}
		if remaining > 0 {
			remaining--
			rep.SamplesDropped++
			continue
		}
		kept = append(kept, out.Samples[i])
	}
	out.Samples = kept
}

// skewCores shifts every timestamp of each core by a bounded constant
// offset. Cores are enumerated in sorted order so the offset a core gets
// does not depend on record order.
func (p Plan) skewCores(out *trace.Set, rng *hashx.SplitMix64, rep *Report) {
	if p.SkewCycles == 0 {
		return
	}
	present := map[int32]bool{}
	for _, m := range out.Markers {
		present[m.Core] = true
	}
	for i := range out.Samples {
		present[out.Samples[i].Core] = true
	}
	cores := make([]int32, 0, len(present))
	for c := range present {
		cores = append(cores, c)
	}
	sort.Slice(cores, func(i, j int) bool { return cores[i] < cores[j] })
	offs := map[int32]int64{}
	span := 2*int64(p.SkewCycles) + 1
	for _, c := range cores {
		off := int64(rng.Next()%uint64(span)) - int64(p.SkewCycles)
		offs[c] = off
		rep.CoreSkew[c] = off
	}
	shift := func(tsc uint64, off int64) uint64 {
		if off >= 0 {
			return tsc + uint64(off)
		}
		neg := uint64(-off)
		if tsc < neg {
			return 0 // saturate: clocks do not wrap to the far future
		}
		return tsc - neg
	}
	for i := range out.Markers {
		out.Markers[i].TSC = shift(out.Markers[i].TSC, offs[out.Markers[i].Core])
	}
	for i := range out.Samples {
		out.Samples[i].TSC = shift(out.Samples[i].TSC, offs[out.Samples[i].Core])
	}
}

// reorderSamples permutes sample delivery positions within fixed windows
// (Fisher–Yates per window). Timestamps are untouched.
func (p Plan) reorderSamples(out *trace.Set, rng *hashx.SplitMix64, rep *Report) {
	if p.ReorderWindow <= 1 || len(out.Samples) < 2 {
		return
	}
	for base := 0; base < len(out.Samples); base += p.ReorderWindow {
		end := base + p.ReorderWindow
		if end > len(out.Samples) {
			end = len(out.Samples)
		}
		w := out.Samples[base:end]
		for i := len(w) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			if i != j {
				w[i], w[j] = w[j], w[i]
			}
		}
		for i := 1; i < len(w); i++ {
			// A sample delivered before its predecessor's timestamp is the
			// observable symptom; count those.
			if w[i].TSC < w[i-1].TSC {
				rep.SamplesReordered++
			}
		}
	}
}
