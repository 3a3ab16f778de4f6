package dataplane

import (
	"fmt"

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

// PipelineConfig parameterizes a traced run of the chain.
type PipelineConfig struct {
	// Policy is the compiled rule set and route tables every worker runs
	// against (required). Run only reads it, so rounds may share one.
	*Policy
	// Workers is the simulated core count (default 1); each worker runs
	// the full chain over its own packet stream, shared-nothing.
	Workers int
	// Packets per worker (required).
	Packets int
	// Gen shapes the traffic; its Rules/Routes are overridden with the
	// policy's, and worker w streams from Seed + w·φ.
	Gen GenConfig
	// CacheEntries sizes each worker's flow cache; 0 disables the stage.
	CacheEntries int
	// Reset is the PEBS sampling period in uops (default 1000).
	Reset uint64

	// Warmup runs this many packets per worker through the chain before
	// tracing starts — generator state advances and flow caches fill, but
	// no markers, samples or verdicts are recorded. Detection experiments
	// use it so the cache-warming transient (miss-heavy start decaying to
	// the steady hit rate) sits outside the measured trace instead of
	// reading as an organic change point.
	Warmup int

	// Mid-run onsets, each a fraction of the per-worker stream at which
	// the event fires on every worker (0 = never):
	// ChurnAt swaps the policy to Churn and flushes flow caches.
	ChurnAt float64
	Churn   *Policy
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
	if cfg.Policy == nil {
		return nil, fmt.Errorf("dataplane: no Policy")
	}
	if cfg.ChurnAt > 0 && cfg.Churn == nil {
		return nil, fmt.Errorf("dataplane: ChurnAt set without Churn")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Reset == 0 {
		cfg.Reset = 1000
	}
	if cfg.Gen.Seed == 0 {
		cfg.Gen.Seed = 0x64706c616e65
	}
	cfg.Gen.Rules = cfg.Rules
	cfg.Gen.Routes = cfg.Routes

	mach, err := sim.New(sim.Config{Cores: cfg.Workers})
	if err != nil {
		return nil, err
	}
	fns := make([]*symtab.Fn, len(StageNames))
	for i, name := range StageNames {
		fns[i] = mach.Syms.MustRegister(name, 2048)
	}
	fnParse, fnFlow, fnACL, fnRoute, fnEmit := fns[0], fns[1], fns[2], fns[3], fns[4]
	log := trace.NewMarkerLog(cfg.Workers, trace.DefaultMarkerUops)
	log.Reserve(2 * cfg.Packets) // a Begin and an End per packet

	pebses := make([]*pmu.PEBS, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		pebses[w] = pmu.NewPEBS(pmu.PEBSConfig{DoubleBuffer: true})
		mach.Core(w).PMU.MustProgram(pmu.UopsRetired, cfg.Reset, pebses[w])
	}

	churnIdx := onsetIndex(cfg.ChurnAt, cfg.Packets)
	coldIdx := onsetIndex(cfg.ColdAt, cfg.Packets)
	skewIdx := onsetIndex(cfg.SkewAt, cfg.Packets)
	tc := DefaultTimingConfig()

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
			cur := cfg.Policy
			scratch := cur.matcher.Scratch()
			if churnIdx >= 0 {
				if s := cfg.Churn.matcher.Scratch(); len(s) > len(scratch) {
					scratch = s
				}
			}
			// One meter per walked structure per worker: each walk charges
			// this core.
			meter := &aclMeter{core: c, tc: &tc}
			route4, route6 := lpm.NewMeter(c, tc.RouteV4), lpm.NewMeter6(c, tc.RouteV6)
			var wire []byte

			// Warmup: advance the generator and fill the cache off-trace.
			// Inserted verdicts come from the same policy the timed path
			// uses, so a later measured hit still matches the oracle.
			for j := 0; j < cfg.Warmup; j++ {
				p := gen.Next()
				if cache == nil {
					continue
				}
				key := p.Key()
				if _, ok := cache.Lookup(&key); ok {
					continue
				}
				got := cur.classify(&key, scratch, nil)
				if got.Action == Allow {
					got.NextHop = cur.route(&p, nil, nil)
				}
				cache.Insert(&key, got)
			}

			for j := 0; j < cfg.Packets; j++ {
				if j == churnIdx {
					cur = cfg.Churn
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
				want := GroundTruth(cur.Rules, cur.Routes, &p)

				log.Mark(c, pid, trace.ItemBegin)

				var pp Packet
				var perr error
				c.Call(fnParse, func() {
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
						c.Call(fnFlow, func() {
							c.Exec(tc.FlowProbeUops)
							c.Load(cache.probeLine(&key, tc.FlowBase))
							got, hit = cache.Lookup(&key)
						})
					}
					if !hit {
						c.Call(fnACL, func() { got = cur.classify(&key, scratch, meter) })
						if got.Action == Allow {
							c.Call(fnRoute, func() { got.NextHop = cur.route(&pp, route4, route6) })
						}
						if cacheOn {
							c.Call(fnFlow, func() {
								c.Exec(tc.FlowInsertUops)
								c.Store(cache.probeLine(&key, tc.FlowBase))
								cache.Insert(&key, got)
							})
						}
					}
				}

				c.Call(fnEmit, func() {
					c.Exec(tc.EmitUops)
					c.Store(tc.EmitBase + (pid%512)*64)
				})

				log.Mark(c, pid, trace.ItemEnd)
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

	res := &Result{FreqHz: mach.FreqHz(), Verdicts: verdicts}
	for w := range mismatches {
		res.Mismatches = append(res.Mismatches, mismatches[w]...)
		res.CacheStats.Hits += cacheStats[w].Hits
		res.CacheStats.Misses += cacheStats[w].Misses
		res.CacheStats.Inserts += cacheStats[w].Inserts
		res.CacheStats.Evictions += cacheStats[w].Evictions
	}
	res.Set = trace.NewSet(mach, log, pmu.MergeSamples(pebses...))
	mach.Release()
	return res, nil
}
