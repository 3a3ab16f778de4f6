package dataplane

import (
	"fmt"

	"repro/internal/acl"
	"repro/internal/lpm"
	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// Stage function symbols — the marked functions the tracer attributes
// per-packet cost to, named dataplane-style after the chain's nodes.
const (
	FnParse = "dp_parse_packet"
	FnFlow  = "dp_flow_cache"
	FnACL   = "acl0_classify"
	FnRoute = "route0_lookup"
	FnEmit  = "dp_emit_packet"
)

// StageNames lists the chain's function symbols in stage order.
var StageNames = []string{FnParse, FnFlow, FnACL, FnRoute, FnEmit}

// Stage identifies a chain stage in MarkStages item IDs.
type Stage uint8

// Stages in chain order. StageFlowInsert is the post-route cache install
// — same function symbol as StageFlow, but its own marker item so
// MarkStages never opens one item ID twice.
const (
	StageParse Stage = iota
	StageFlow
	StageACL
	StageRoute
	StageEmit
	StageFlowInsert
)

// Fn returns the stage's function symbol.
func (s Stage) Fn() string {
	if s == StageFlowInsert {
		return FnFlow
	}
	if int(s) < len(StageNames) {
		return StageNames[s]
	}
	return "?"
}

// String implements fmt.Stringer.
func (s Stage) String() string { return s.Fn() }

// StageItemID builds the marker item ID for one packet's stage in
// MarkStages mode (stage in the low 3 bits, biased to stay non-zero).
func StageItemID(packetID uint64, s Stage) uint64 { return packetID<<3 | (uint64(s) + 1) }

// StagePacket inverts StageItemID.
func StagePacket(itemID uint64) (packetID uint64, s Stage) {
	return itemID >> 3, Stage(itemID&7 - 1)
}

// MarkMode selects what a marker item is.
type MarkMode uint8

const (
	// MarkPackets marks one item per packet — the whole chain traversal —
	// with the stages visible as function spans inside it.
	MarkPackets MarkMode = iota
	// MarkStages marks one item per (packet, stage), the finer granularity
	// acltrace's stage view uses.
	MarkStages
)

// PipelineConfig parameterizes a traced run of the chain.
type PipelineConfig struct {
	// Rules is the active policy; Routes the per-family tables.
	Rules  []Rule
	Routes RouteConfig
	// Build shapes the compiled matcher (zero fields take
	// acl.DefaultBuildConfig's).
	Build acl.BuildConfig
	// Workers is the simulated core count (default 1); each worker runs
	// the full chain over its own packet stream, shared-nothing.
	Workers int
	// Packets per worker (required).
	Packets int
	// Gen shapes the traffic; its Rules/Routes are overridden with the
	// pipeline's own, and worker w streams from Seed + w·φ.
	Gen GenConfig
	// CacheEntries sizes each worker's flow cache; 0 disables the stage.
	CacheEntries int
	// Reset is the PEBS sampling period in uops (default 1000).
	Reset uint64
	// MarkerUops is the marking cost (0 = trace default).
	MarkerUops uint64
	// Timing charges stage costs (zero = DefaultTimingConfig).
	Timing TimingConfig
	// Mark selects item granularity.
	Mark MarkMode

	// Warmup runs this many packets per worker through the chain before
	// tracing starts — generator state advances and flow caches fill, but
	// no markers, samples or verdicts are recorded. Detection experiments
	// use it so the cache-warming transient (miss-heavy start decaying to
	// the steady hit rate) sits outside the measured trace instead of
	// reading as an organic change point.
	Warmup int

	// Mid-run onsets, each a fraction of the per-worker stream at which
	// the event fires on every worker (0 = never):
	// ChurnAt swaps the policy to ChurnRules and flushes flow caches.
	ChurnAt    float64
	ChurnRules []Rule
	// ColdAt flushes and disables the flow cache for the rest of the run.
	ColdAt float64
	// SkewAt retargets the generator's deep-destination share.
	SkewAt       float64
	SkewDeepFrac float64
}

// Result is a traced pipeline run.
type Result struct {
	// Set is the hybrid trace across worker cores.
	Set *trace.Set
	// FreqHz for cycle/time conversions.
	FreqHz uint64
	// Verdicts holds each packet's chain verdict at index ID−1: packet IDs
	// run densely from 1, worker by worker.
	Verdicts []Verdict
	// Mismatches lists the packets whose chain verdict disagreed with the
	// linear oracle, in packet ID order (always empty unless the matcher
	// or cache is broken).
	Mismatches []Mismatch
	// CacheStats aggregates flow-cache traffic across workers.
	CacheStats FlowStats
	// Matcher is the (initial) compiled policy, for shape reporting.
	Matcher *Matcher
}

// Mismatch is one packet whose chain verdict disagreed with the oracle.
type Mismatch struct {
	ID        uint64
	Got, Want Verdict
}

// VerifyTruth fails if any packet's verdict disagreed with the oracle.
func (r *Result) VerifyTruth() error {
	if len(r.Mismatches) == 0 {
		return nil
	}
	m := r.Mismatches[0]
	return fmt.Errorf("dataplane: %d verdict mismatches (first: packet %d got %+v want %+v)",
		len(r.Mismatches), m.ID, m.Got, m.Want)
}

// onsetIndex converts a fractional onset into a packet index, -1 if off.
func onsetIndex(frac float64, packets int) int {
	if frac <= 0 {
		return -1
	}
	return int(frac * float64(packets))
}

// Run executes the chain as a traced workload and returns the trace plus
// per-packet ground truth. Determinism: the same config produces the
// same trace, verdicts and report bytes.
func Run(cfg PipelineConfig) (*Result, error) {
	if cfg.Packets <= 0 {
		return nil, fmt.Errorf("dataplane: Packets must be positive")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Reset == 0 {
		cfg.Reset = 1000
	}
	if cfg.Timing.zero() {
		cfg.Timing = DefaultTimingConfig()
	}
	if cfg.Gen.Seed == 0 {
		cfg.Gen.Seed = 0x64706c616e65
	}
	cfg.Gen.Rules = cfg.Rules
	cfg.Gen.Routes = cfg.Routes

	matcher, err := Compile(cfg.Rules, cfg.Build)
	if err != nil {
		return nil, err
	}
	var churn *Matcher
	if cfg.ChurnAt > 0 {
		if len(cfg.ChurnRules) == 0 {
			return nil, fmt.Errorf("dataplane: ChurnAt set without ChurnRules")
		}
		if churn, err = Compile(cfg.ChurnRules, cfg.Build); err != nil {
			return nil, fmt.Errorf("dataplane: churn rules: %w", err)
		}
	}
	router, err := NewRouter(cfg.Routes)
	if err != nil {
		return nil, err
	}

	mach, err := sim.New(sim.Config{Cores: cfg.Workers})
	if err != nil {
		return nil, err
	}
	fns := map[string]*symtab.Fn{}
	for _, name := range StageNames {
		fns[name] = mach.Syms.MustRegister(name, 2048)
	}
	log := trace.NewMarkerLog(cfg.Workers, cfg.MarkerUops)

	pebses := make([]*pmu.PEBS, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		pebses[w] = pmu.NewPEBS(pmu.PEBSConfig{DoubleBuffer: true})
		mach.Core(w).PMU.MustProgram(pmu.UopsRetired, cfg.Reset, pebses[w])
	}

	churnIdx := onsetIndex(cfg.ChurnAt, cfg.Packets)
	coldIdx := onsetIndex(cfg.ColdAt, cfg.Packets)
	skewIdx := onsetIndex(cfg.SkewAt, cfg.Packets)
	tc := cfg.Timing

	verdicts := make([]Verdict, cfg.Workers*cfg.Packets)
	mismatches := make([][]Mismatch, cfg.Workers)
	cacheStats := make([]FlowStats, cfg.Workers)

	for w := 0; w < cfg.Workers; w++ {
		w := w
		mach.MustSpawn(w, func(c *sim.Core) {
			genCfg := cfg.Gen
			genCfg.Seed = cfg.Gen.Seed + uint64(w)*0xa5a5a5a5a5a5a5a5
			gen := NewGenerator(genCfg)
			var cache *FlowCache
			if cfg.CacheEntries > 0 {
				cache = NewFlowCache(cfg.CacheEntries)
			}
			cacheOn := cache != nil
			cur, rules := matcher, cfg.Rules
			scratch := matcher.Scratch()
			if churn != nil {
				if s := churn.Scratch(); len(s) > len(scratch) {
					scratch = s
				}
			}
			// One acl0 meter per worker: the walk charges this core.
			meter := &aclMeter{core: c, tc: &tc}
			var wire []byte

			// stage brackets the body in a function call and, in
			// MarkStages mode, its own marker item.
			stage := func(pid uint64, s Stage, body func()) {
				if cfg.Mark == MarkStages {
					log.Mark(c, StageItemID(pid, s), trace.ItemBegin)
				}
				c.Call(fns[s.Fn()], body)
				if cfg.Mark == MarkStages {
					log.Mark(c, StageItemID(pid, s), trace.ItemEnd)
				}
			}

			// Warmup: advance the generator and fill the cache off-trace.
			// Inserted verdicts come from the same matcher+router the timed
			// path uses, so a later measured hit still matches the oracle.
			for j := 0; j < cfg.Warmup; j++ {
				p := gen.Next()
				if cache == nil {
					continue
				}
				key := p.Key()
				if _, ok := cache.Lookup(&key); ok {
					continue
				}
				got := Verdict{Rule: -1, Action: NoMatchAction, NextHop: lpm.NoRoute}
				if idx, ok := cur.Classify(&p, scratch); ok {
					got = Verdict{Rule: idx, Action: rules[idx].Action, NextHop: lpm.NoRoute}
					if got.Action == Allow {
						got.NextHop, _ = router.Lookup(&p)
					}
				}
				cache.Insert(&key, got)
			}

			for j := 0; j < cfg.Packets; j++ {
				if j == churnIdx {
					cur, rules = churn, cfg.ChurnRules
					if cache != nil {
						cache.Flush()
					}
				}
				if j == coldIdx && cache != nil {
					cache.Flush()
					cacheOn = false
				}
				if j == skewIdx {
					gen.SetDeepDstFrac(cfg.SkewDeepFrac)
				}

				p := gen.Next()
				pid := uint64(w*cfg.Packets+j) + 1
				p.ID = pid
				wire = p.AppendWire(wire[:0])
				want := GroundTruth(rules, cfg.Routes, &p)

				if cfg.Mark == MarkPackets {
					log.Mark(c, pid, trace.ItemBegin)
				}

				var pp Packet
				var perr error
				stage(pid, StageParse, func() {
					c.Exec(tc.ParseBaseUops + tc.ParsePerByteUops*uint64(len(wire)))
					pp, perr = ParsePacket(wire)
				})
				pp.ID = pid

				var got Verdict
				hit := false
				if perr != nil {
					got = Verdict{Rule: -1, Action: NoMatchAction, NextHop: lpm.NoRoute}
				} else {
					key := pp.Key()
					if cacheOn {
						stage(pid, StageFlow, func() {
							got, hit = cache.LookupTimed(c, &key, tc)
						})
					}
					if !hit {
						stage(pid, StageACL, func() {
							idx, ok, _ := cur.set.Classify(key[:], scratch, meter)
							if !ok {
								got = Verdict{Rule: -1, Action: NoMatchAction, NextHop: lpm.NoRoute}
								return
							}
							got = Verdict{Rule: idx, Action: rules[idx].Action, NextHop: lpm.NoRoute}
						})
						if got.Action == Allow {
							stage(pid, StageRoute, func() {
								got.NextHop, _ = router.LookupTimed(c, &pp, tc)
							})
						}
						if cacheOn {
							stage(pid, StageFlowInsert, func() {
								cache.InsertTimed(c, &key, got, tc)
							})
						}
					}
				}

				stage(pid, StageEmit, func() {
					c.Exec(tc.EmitUops)
					c.Store(tc.EmitBase + (pid%512)*64)
				})

				if cfg.Mark == MarkPackets {
					log.Mark(c, pid, trace.ItemEnd)
				}
				verdicts[pid-1] = got
				if got != want {
					mismatches[w] = append(mismatches[w], Mismatch{ID: pid, Got: got, Want: want})
				}
			}
			if cache != nil {
				cacheStats[w] = cache.Stats()
			}
		})
	}
	mach.Wait()

	res := &Result{FreqHz: mach.FreqHz(), Verdicts: verdicts, Matcher: matcher}
	for w := range mismatches {
		res.Mismatches = append(res.Mismatches, mismatches[w]...)
		res.CacheStats.Hits += cacheStats[w].Hits
		res.CacheStats.Misses += cacheStats[w].Misses
		res.CacheStats.Inserts += cacheStats[w].Inserts
		res.CacheStats.Evictions += cacheStats[w].Evictions
	}
	res.Set = trace.NewSet(mach, log, pmu.MergeSamples(pebses...))
	return res, nil
}
