// Ablation benchmarks for the design choices DESIGN.md calls out: sampler
// cost, estimator variant, marker sink, trie count, and PEBS buffer sizing.
package repro

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/lpm"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// BenchmarkAblationSamplerCost contrasts the virtual-time cost the target
// pays per sample under PEBS vs software sampling — the reason the paper
// needs PEBS at all (Table I, Fig. 4).
func BenchmarkAblationSamplerCost(b *testing.B) {
	run := func(rec pmu.Recorder) uint64 {
		m := sim.MustNew(sim.Config{Cores: 1})
		c := m.Core(0)
		c.PMU.MustProgram(pmu.UopsRetired, 1000, rec)
		c.Exec(1_000_000)
		return c.Now()
	}
	for i := 0; i < b.N; i++ {
		pebsClock := run(pmu.NewPEBS(pmu.PEBSConfig{}))
		softClock := run(pmu.NewSoftSampler(pmu.SoftSamplerConfig{}))
		if i == 0 {
			base := uint64(1_000_000)
			b.ReportMetric(float64(pebsClock-base)/1e3, "pebs-overhead-kcy")
			b.ReportMetric(float64(softClock-base)/1e3, "soft-overhead-kcy")
		}
	}
}

// BenchmarkAblationEstimator contrasts the paper's first-to-last estimator
// against the count×mean-gap alternative on a ground-truth workload.
func BenchmarkAblationEstimator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := sim.MustNew(sim.Config{Cores: 1})
		fn := m.Syms.MustRegister("f", 4096)
		pebs := pmu.NewPEBS(pmu.PEBSConfig{})
		c := m.Core(0)
		c.PMU.MustProgram(pmu.UopsRetired, 1000, pebs)
		log := trace.NewMarkerLog(1, 0)
		const truth = 20_000 // uops == cycles at rate 1/1
		for id := uint64(1); id <= 50; id++ {
			log.Mark(c, id, trace.ItemBegin)
			c.Call(fn, func() { c.Exec(truth) })
			log.Mark(c, id, trace.ItemEnd)
			c.Exec(500)
		}
		set := trace.NewSet(m, log, pebs.Samples())
		a, err := core.Integrate(set, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		var errFL, errGap float64
		for idx := range a.Items {
			fs := a.Items[idx].Func("f")
			errFL += math.Abs(float64(fs.Cycles()) - truth)
			errGap += math.Abs(fs.CyclesByGap(a.MeanSampleGap[0]) - truth)
		}
		if i == 0 {
			n := float64(len(a.Items))
			b.ReportMetric(errFL/n/truth*100, "firstlast-err-pct")
			b.ReportMetric(errGap/n/truth*100, "countgap-err-pct")
		}
	}
}

// BenchmarkAblationMarkerSink contrasts in-memory marking (the default)
// with an SSD-backed marking cost (the paper's unoptimized prototype).
func BenchmarkAblationMarkerSink(b *testing.B) {
	run := func(markerUops uint64) uint64 {
		m := sim.MustNew(sim.Config{Cores: 1})
		c := m.Core(0)
		log := trace.NewMarkerLog(1, markerUops)
		for id := uint64(1); id <= 1000; id++ {
			log.Mark(c, id, trace.ItemBegin)
			c.Exec(10_000)
			log.Mark(c, id, trace.ItemEnd)
		}
		return c.Now()
	}
	for i := 0; i < b.N; i++ {
		mem := run(trace.DefaultMarkerUops) // buffered in memory
		ssd := run(4000)                    // ~2 µs synchronous SSD append
		if i == 0 {
			base := float64(1000 * 10_000)
			b.ReportMetric((float64(mem)-base)/base*100, "mem-marker-overhead-pct")
			b.ReportMetric((float64(ssd)-base)/base*100, "ssd-marker-overhead-pct")
		}
	}
}

// BenchmarkAblationTrieCount contrasts vanilla DPDK's 8 tries with the
// paper's 247-trie build: more tries mean more fixed per-trie walk cost and
// a larger latency spread between packet types.
func BenchmarkAblationTrieCount(b *testing.B) {
	rules := acl.PaperRuleSet()
	build := func(maxTries int) *acl.Classifier {
		return acl.MustBuild(rules, acl.BuildConfig{MaxTries: maxTries, MaxAtomsPerTrie: 203})
	}
	measure := func(cls *acl.Classifier, pt acl.PacketType) float64 {
		m := sim.MustNew(sim.Config{Cores: 1})
		c := m.Core(0)
		c.SetRate(1, 3)
		meter := acl.NewCoreMeter(c, acl.DefaultTimingConfig())
		for w := 0; w < 3; w++ {
			cls.ClassifyTimed(acl.PaperPacket(pt, 1), meter)
		}
		t0 := c.Now()
		const n = 10
		for k := 0; k < n; k++ {
			cls.ClassifyTimed(acl.PaperPacket(pt, 1), meter)
		}
		return m.CyclesToMicros((c.Now() - t0) / n)
	}
	c8 := build(8)
	c247 := build(acl.PaperTrieCount)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a8 := measure(c8, acl.TypeA)
		a247 := measure(c247, acl.TypeA)
		if i == 0 {
			b.ReportMetric(float64(c8.NumTries()), "vanilla-tries")
			b.ReportMetric(a8, "typeA-8tries-us")
			b.ReportMetric(a247, "typeA-247tries-us")
		}
	}
}

// BenchmarkAblationPEBSBuffer contrasts PEBS buffer sizes: a tiny buffer
// interrupts constantly, a large one amortizes the drain (§III-E's
// double-buffering discussion).
func BenchmarkAblationPEBSBuffer(b *testing.B) {
	run := func(entries int) (uint64, uint64) {
		m := sim.MustNew(sim.Config{Cores: 1})
		c := m.Core(0)
		pebs := pmu.NewPEBS(pmu.PEBSConfig{BufferEntries: entries})
		c.PMU.MustProgram(pmu.UopsRetired, 1000, pebs)
		c.Exec(2_000_000)
		return c.Now(), pebs.Interrupts()
	}
	runDouble := func(entries int) uint64 {
		m := sim.MustNew(sim.Config{Cores: 1})
		c := m.Core(0)
		pebs := pmu.NewPEBS(pmu.PEBSConfig{BufferEntries: entries, DoubleBuffer: true})
		c.PMU.MustProgram(pmu.UopsRetired, 1000, pebs)
		c.Exec(2_000_000)
		return c.Now()
	}
	for i := 0; i < b.N; i++ {
		smallClock, smallInts := run(16)
		bigClock, bigInts := run(4096)
		doubleClock := runDouble(16)
		if i == 0 {
			b.ReportMetric(float64(smallInts), "interrupts-16buf")
			b.ReportMetric(float64(bigInts), "interrupts-4096buf")
			b.ReportMetric(float64(smallClock-bigClock)/1e3, "extra-kcycles-16buf")
			b.ReportMetric(float64(doubleClock-bigClock)/1e3, "extra-kcycles-16buf-doublebuf")
		}
	}
}

// BenchmarkAblationLPMFirstLevel contrasts LPM first-level widths: a wider
// first level resolves more routes in one probe (DPDK chose 24 bits for
// exactly this) at the price of table memory.
func BenchmarkAblationLPMFirstLevel(b *testing.B) {
	var routes []lpm.Route
	routes = append(routes, lpm.Route{Len: 0, NextHop: 0})
	for i := 0; i < 512; i++ {
		// /20 routes: deeper than a 16-bit first level (two probes),
		// shallower than a 24-bit one (single probe).
		routes = append(routes, lpm.Route{
			Prefix: uint32(i) << 20, Len: 20, NextHop: 1,
		})
	}
	measure := func(bits int) (extRate float64, entries int) {
		tbl := lpm.MustBuild(routes, lpm.Config{FirstLevelBits: bits})
		ext := 0
		const probes = 4096
		for k := 0; k < probes; k++ {
			// Traffic destined to the installed routes.
			addr := routes[1+k%512].Prefix | uint32(k)&0xfff
			if _, extended := tbl.Lookup(addr); extended {
				ext++
			}
		}
		return float64(ext) / probes, tbl.FirstLevelEntries()
	}
	for i := 0; i < b.N; i++ {
		r16, e16 := measure(16)
		r24, e24 := measure(24)
		if i == 0 {
			b.ReportMetric(r16*100, "pct-two-probe-16bit")
			b.ReportMetric(r24*100, "pct-two-probe-24bit")
			b.ReportMetric(float64(e24)/float64(e16), "memory-ratio-24v16")
		}
	}
}

// Micro-benchmarks of the hot paths (real time, not virtual time).

// microIntegrateSet builds the fixed 2000-item single-core trace shared by
// BenchmarkMicroIntegrate and BenchmarkInstrumentedIntegrate — the two must
// integrate identical input for their comparison to mean anything.
func microIntegrateSet() *trace.Set {
	m := sim.MustNew(sim.Config{Cores: 1})
	fn := m.Syms.MustRegister("f", 4096)
	pebs := pmu.NewPEBS(pmu.PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(pmu.UopsRetired, 500, pebs)
	log := trace.NewMarkerLog(1, 0)
	for id := uint64(1); id <= 2000; id++ {
		log.Mark(c, id, trace.ItemBegin)
		c.Call(fn, func() { c.Exec(5000) })
		log.Mark(c, id, trace.ItemEnd)
	}
	return trace.NewSet(m, log, pebs.Samples())
}

// BenchmarkMicroIntegrate is the uninstrumented baseline: self-telemetry is
// disabled for its duration so the number measures the pure integration
// path.
func BenchmarkMicroIntegrate(b *testing.B) {
	set := microIntegrateSet()
	old := obs.SetDefault(nil)
	defer obs.SetDefault(old)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Integrate(set, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(set.Samples)), "samples")
}

// BenchmarkInstrumentedIntegrate is the same workload with the full
// self-telemetry stack live: a fresh metrics registry receiving every
// counter/gauge/histogram publication AND span tracing enabled; its
// distance from BenchmarkMicroIntegrate is the instrumentation cost.
func BenchmarkInstrumentedIntegrate(b *testing.B) {
	set := microIntegrateSet()
	old := obs.SetDefault(obs.NewRegistry())
	defer obs.SetDefault(old)
	obs.StartTracing()
	defer obs.StopTracing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Integrate(set, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(set.Samples)), "samples")
}

// BenchmarkParallelIntegrate measures the sharded integration pipeline on
// an 8-core trace at 1/2/4/8 worker shards. Output is identical at every
// level (see TestParallelIntegrateEquivalence); only wall-clock differs.
// On a single-vCPU host the levels tie — the interesting axis there is the
// ns/op and allocs/op drop vs the seed's map-based integrator.
func BenchmarkParallelIntegrate(b *testing.B) {
	const cores = 8
	m := sim.MustNew(sim.Config{Cores: cores})
	fns := []*symtab.Fn{
		m.Syms.MustRegister("parse", 2048),
		m.Syms.MustRegister("lookup", 4096),
		m.Syms.MustRegister("emit", 1024),
	}
	pebs := pmu.NewPEBS(pmu.PEBSConfig{BufferEntries: 1 << 20})
	log := trace.NewMarkerLog(cores, 0)
	id := uint64(1)
	for ci := 0; ci < cores; ci++ {
		c := m.Core(ci)
		c.PMU.MustProgram(pmu.UopsRetired, 500, pebs)
		for n := 0; n < 400; n++ {
			log.Mark(c, id, trace.ItemBegin)
			for _, fn := range fns {
				c.Call(fn, func() { c.Exec(1500) })
			}
			log.Mark(c, id, trace.ItemEnd)
			c.Exec(200)
			id++
		}
	}
	set := trace.NewSet(m, log, pebs.Samples())
	b.ReportMetric(float64(len(set.Samples)), "samples")
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := core.Integrate(set, core.Options{Parallelism: p})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(a.Diag.SymCacheHits)/
						float64(a.Diag.SymCacheHits+a.Diag.SymCacheMisses)*100, "symcache-hit-pct")
				}
			}
		})
	}
}

// BenchmarkSymtabResolveCached measures the Resolve cache across the three
// IP patterns that matter: a hot loop inside one function (memo), a small
// working set of hot functions (direct-mapped slots), and a uniform scan
// over 500 functions (worst case — frequent fallbacks to binary search).
func BenchmarkSymtabResolveCached(b *testing.B) {
	tab := symtab.NewTable()
	fns := make([]*symtab.Fn, 500)
	for i := range fns {
		fns[i] = tab.MustRegister(fmt.Sprintf("fn_%03d", i), 64+uint64(i%7)*16)
	}
	report := func(b *testing.B, before [2]uint64) {
		h, m := tab.CacheStats()
		dh, dm := h-before[0], m-before[1]
		if dh+dm > 0 {
			b.ReportMetric(float64(dh)/float64(dh+dm)*100, "hit-pct")
		}
	}
	b.Run("hot-loop", func(b *testing.B) {
		f := fns[250]
		h, m := tab.CacheStats()
		for i := 0; i < b.N; i++ {
			if tab.Resolve(f.Base+uint64(i)%f.Size) == nil {
				b.Fatal("resolve failed")
			}
		}
		report(b, [2]uint64{h, m})
	})
	b.Run("hot-set-8", func(b *testing.B) {
		h, m := tab.CacheStats()
		for i := 0; i < b.N; i++ {
			f := fns[(i%8)*61]
			if tab.Resolve(f.Base+uint64(i)%f.Size) == nil {
				b.Fatal("resolve failed")
			}
		}
		report(b, [2]uint64{h, m})
	})
	b.Run("uniform-500", func(b *testing.B) {
		h, m := tab.CacheStats()
		for i := 0; i < b.N; i++ {
			f := fns[i%len(fns)]
			if tab.Resolve(f.Base+uint64(i)%f.Size) == nil {
				b.Fatal("resolve failed")
			}
		}
		report(b, [2]uint64{h, m})
	})
	b.Run("resolver-hot-set-8", func(b *testing.B) {
		r := tab.NewResolver()
		for i := 0; i < b.N; i++ {
			f := fns[(i%8)*61]
			if r.Resolve(f.Base+uint64(i)%f.Size) == nil {
				b.Fatal("resolve failed")
			}
		}
		h, m := r.Stats()
		if h+m > 0 {
			b.ReportMetric(float64(h)/float64(h+m)*100, "hit-pct")
		}
	})
}

func BenchmarkMicroSymtabResolve(b *testing.B) {
	tab := symtab.NewTable()
	var last *symtab.Fn
	for i := 0; i < 500; i++ {
		last = tab.MustRegister(fmt.Sprintf("fn_%03d", i), 64+uint64(i%7)*16)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab.Resolve(last.Base+uint64(i)%last.Size) == nil {
			b.Fatal("resolve failed")
		}
	}
}

func BenchmarkMicroRingPushPop(b *testing.B) {
	m := sim.MustNew(sim.Config{Cores: 2})
	q := queue.New[int](queue.Config{Capacity: 1024})
	p, s := m.Core(0), m.Core(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(p, i)
		if _, ok := q.Pop(s); !ok {
			b.Fatal("pop failed")
		}
	}
}

func BenchmarkMicroSimExecSampled(b *testing.B) {
	m := sim.MustNew(sim.Config{Cores: 1})
	c := m.Core(0)
	c.PMU.MustProgram(pmu.UopsRetired, 4096, pmu.NewPEBS(pmu.PEBSConfig{BufferEntries: 1 << 20}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Exec(1024)
	}
}
