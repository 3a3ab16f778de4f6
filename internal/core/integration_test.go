package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/faults"
	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runGroundTruth executes a synthetic two-function workload on the simulator
// with PEBS at reset value r, returning the trace set plus the true
// per-item, per-function cycle costs the simulator charged.
func runGroundTruth(t *testing.T, r uint64, items int, fUops, gUops uint64) (*trace.Set, map[uint64][2]uint64) {
	t.Helper()
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 4096)
	g := m.Syms.MustRegister("g", 4096)
	pb := pmu.NewPEBS(pmu.PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(pmu.UopsRetired, r, pb)
	log := trace.NewMarkerLog(1, 0)

	truth := map[uint64][2]uint64{}
	for i := 1; i <= items; i++ {
		id := uint64(i)
		log.Mark(c, id, trace.ItemBegin)
		t0 := c.Now()
		c.Call(f, func() { c.Exec(fUops) })
		t1 := c.Now()
		c.Call(g, func() { c.Exec(gUops) })
		t2 := c.Now()
		log.Mark(c, id, trace.ItemEnd)
		truth[id] = [2]uint64{t1 - t0, t2 - t1}
		c.Exec(200) // inter-item gap (queue work)
	}
	return trace.NewSet(m, log, pb.Samples()), truth
}

// TestEstimatorAccuracyImprovesWithSamplingRate is the Fig. 9 mechanism in
// miniature: the first-to-last estimate underestimates the true time by
// roughly one sample interval, so smaller reset values give tighter
// estimates.
func TestEstimatorAccuracyImprovesWithSamplingRate(t *testing.T) {
	const fUops, gUops = 20000, 30000
	errAt := func(r uint64) float64 {
		set, truth := runGroundTruth(t, r, 20, fUops, gUops)
		a, err := Integrate(set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var sumRel float64
		var n int
		for id, tr := range truth {
			it := a.Item(id)
			if it == nil {
				t.Fatalf("item %d missing at R=%d", id, r)
			}
			est := it.Func("f").Cycles()
			rel := (float64(tr[0]) - float64(est)) / float64(tr[0])
			if rel < 0 {
				rel = -rel
			}
			sumRel += rel
			n++
		}
		return sumRel / float64(n)
	}
	eSmall := errAt(500)
	eLarge := errAt(8000)
	if eSmall >= eLarge {
		t.Errorf("error at R=500 (%.3f) should beat R=8000 (%.3f)", eSmall, eLarge)
	}
	if eSmall > 0.10 {
		t.Errorf("error at R=500 = %.3f, want under 10%%", eSmall)
	}
}

// TestEstimatesNeverExceedItemSpan: per-function first-to-last spans are
// contained within the item's marker window, and the sum over disjoint
// functions cannot exceed the item elapsed time.
func TestEstimatesNeverExceedItemSpan(t *testing.T) {
	set, _ := runGroundTruth(t, 1000, 10, 15000, 25000)
	a, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 10 {
		t.Fatalf("items = %d", len(a.Items))
	}
	for _, it := range a.Items {
		var sum uint64
		for _, fs := range it.Funcs {
			if fs.FirstTSC < it.BeginTSC || fs.LastTSC > it.EndTSC {
				t.Errorf("item %d: span of %s [%d,%d] outside item [%d,%d]",
					it.ID, fs.Fn.Name, fs.FirstTSC, fs.LastTSC, it.BeginTSC, it.EndTSC)
			}
			sum += fs.Cycles()
		}
		if sum > it.ElapsedCycles() {
			t.Errorf("item %d: function spans sum to %d > elapsed %d (f and g are disjoint)",
				it.ID, sum, it.ElapsedCycles())
		}
	}
}

// TestEverySampleAttributedAtMostOnce: total attribution accounting closes.
func TestEverySampleAttributedAtMostOnce(t *testing.T) {
	set, _ := runGroundTruth(t, 700, 15, 10000, 12000)
	a, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	attributed := 0
	for _, it := range a.Items {
		attributed += it.SampleCount
	}
	if got := attributed + a.Diag.UnattributedSamples; got != len(set.Samples) {
		t.Errorf("attribution accounting: %d attributed + %d unattributed != %d samples",
			attributed, a.Diag.UnattributedSamples, len(set.Samples))
	}
}

// TestSampleLossDegradesGracefully: dropping whole buffers' worth of PEBS
// samples (a third of them, in bursts of 32) loses samples but never
// corrupts attribution of the remainder.
func TestSampleLossDegradesGracefully(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 4096)
	pb := pmu.NewPEBS(pmu.PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(pmu.UopsRetired, 500, pb)
	log := trace.NewMarkerLog(1, 0)
	for i := 1; i <= 30; i++ {
		log.Mark(c, uint64(i), trace.ItemBegin)
		c.Call(f, func() { c.Exec(20000) })
		log.Mark(c, uint64(i), trace.ItemEnd)
	}
	set, rep := faults.Plan{Seed: 1, SampleLossRate: 1.0 / 3, BurstLen: 32}.Apply(trace.NewSet(m, log, pb.Samples()))
	if rep.SamplesDropped == 0 {
		t.Fatal("loss injection inactive")
	}
	a, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 30 {
		t.Fatalf("items = %d, want 30 (markers are intact)", len(a.Items))
	}
	for _, it := range a.Items {
		if fs := it.Func("f"); fs.Samples > 0 {
			if fs.FirstTSC < it.BeginTSC || fs.LastTSC > it.EndTSC {
				t.Errorf("item %d attribution corrupted by sample loss", it.ID)
			}
			if fs.Cycles() > it.ElapsedCycles() {
				t.Errorf("item %d estimate exceeds elapsed", it.ID)
			}
		}
	}
}

// TestIPSkidRobustness: with PEBS skid enabled, samples taken at a
// function's tail attribute to the next function in the address space. The
// analyzer must stay internally consistent (spans within items, accounting
// closed) and the error must stay marginal — a few samples per boundary.
func TestIPSkidRobustness(t *testing.T) {
	run := func(skid uint64) (*Analysis, int) {
		m := sim.MustNew(sim.Config{Cores: 1})
		f := m.Syms.MustRegister("f", 4096)
		g := m.Syms.MustRegister("g", 4096)
		pb := pmu.NewPEBS(pmu.PEBSConfig{SkidBytes: skid})
		c := m.Core(0)
		c.PMU.MustProgram(pmu.UopsRetired, 300, pb)
		log := trace.NewMarkerLog(1, 0)
		for id := uint64(1); id <= 20; id++ {
			log.Mark(c, id, trace.ItemBegin)
			c.Call(f, func() { c.Exec(6000) })
			c.Call(g, func() { c.Exec(6000) })
			log.Mark(c, id, trace.ItemEnd)
		}
		set := trace.NewSet(m, log, pb.Samples())
		a, err := Integrate(set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return a, len(set.Samples)
	}
	clean, _ := run(0)
	skidded, total := run(16)
	attributed := 0
	for i := range skidded.Items {
		it := &skidded.Items[i]
		attributed += it.SampleCount
		for _, fs := range it.Funcs {
			if fs.FirstTSC < it.BeginTSC || fs.LastTSC > it.EndTSC {
				t.Fatalf("skid corrupted span containment for item %d", it.ID)
			}
		}
	}
	if attributed+skidded.Diag.UnattributedSamples != total {
		t.Error("skid broke sample accounting")
	}
	// Estimates remain close to the skid-free run.
	for i := range clean.Items {
		c0 := clean.Items[i].Func("f").Cycles()
		c1 := skidded.Items[i].Func("f").Cycles()
		d := int64(c1) - int64(c0)
		if d < 0 {
			d = -d
		}
		if float64(d) > 0.15*float64(c0)+600 {
			t.Errorf("item %d: skid moved f estimate from %d to %d", clean.Items[i].ID, c0, c1)
		}
	}
}

// TestClockSkewAcrossCores: integration is per-core, so a constant TSC skew
// between cores must not leak samples across items of different cores.
func TestClockSkewAcrossCores(t *testing.T) {
	m := sim.MustNew(sim.Config{Cores: 2})
	f := m.Syms.MustRegister("f", 64)
	const skew = 1_000_000
	set := &trace.Set{
		FreqHz: m.FreqHz(),
		Syms:   m.Syms,
		Markers: []trace.Marker{
			{Item: 1, TSC: 100, Core: 0, Kind: trace.ItemBegin},
			{Item: 1, TSC: 500, Core: 0, Kind: trace.ItemEnd},
			{Item: 2, TSC: 100 + skew, Core: 1, Kind: trace.ItemBegin},
			{Item: 2, TSC: 500 + skew, Core: 1, Kind: trace.ItemEnd},
		},
		Samples: []pmu.Sample{
			{TSC: 200, IP: f.Base, Core: 0, Event: pmu.UopsRetired},
			{TSC: 200 + skew, IP: f.Base, Core: 1, Event: pmu.UopsRetired},
		},
	}
	a, err := Integrate(set, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Item(1).SampleCount != 1 || a.Item(2).SampleCount != 1 {
		t.Errorf("skewed cores cross-attributed: %+v", a.Items)
	}
	if a.Diag.UnattributedSamples != 0 {
		t.Errorf("unattributed = %d", a.Diag.UnattributedSamples)
	}
}

// Property: random marker layouts + random samples never panic, never
// attribute a sample outside its item, and accounting always closes.
func TestQuickIntegrationInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := sim.MustNew(sim.Config{Cores: 1})
	f := m.Syms.MustRegister("f", 1024)
	prop := func(gaps []uint8, sampleTSCs []uint16) bool {
		set := &trace.Set{FreqHz: m.FreqHz(), Syms: m.Syms}
		tsc := uint64(0)
		id := uint64(1)
		open := false
		for _, g := range gaps {
			tsc += uint64(g) + 1
			if open {
				set.Markers = append(set.Markers, trace.Marker{Item: id, TSC: tsc, Kind: trace.ItemEnd})
				id++
			} else {
				set.Markers = append(set.Markers, trace.Marker{Item: id, TSC: tsc, Kind: trace.ItemBegin})
			}
			open = !open
		}
		for _, s := range sampleTSCs {
			set.Samples = append(set.Samples, pmu.Sample{TSC: uint64(s), IP: f.Base + uint64(s)%f.Size, Event: pmu.UopsRetired})
		}
		a, err := Integrate(set, Options{})
		if err != nil {
			return false
		}
		attributed := 0
		for _, it := range a.Items {
			attributed += it.SampleCount
			for _, fs := range it.Funcs {
				if fs.FirstTSC < it.BeginTSC || fs.LastTSC > it.EndTSC {
					return false
				}
				if fs.LastTSC < fs.FirstTSC {
					return false
				}
			}
		}
		return attributed+a.Diag.UnattributedSamples == len(set.Samples)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}
