package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand/v2"

	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The traced functions of the generated request workload. stepFn is the
// one whose cost doubles at the seeded onset on fleet_paced.
const (
	fnParse  = "parse_request"
	fnLookup = "table_lookup"
	fnRender = "render_reply"
	stepFn   = fnLookup
)

// genCores is the simulated core count of every generated set.
const genCores = 2

// setShape sizes one generated trace set.
type setShape struct {
	items int
	// reset is the PEBS sampling period in uops.
	reset uint64
	// scale multiplies the per-function uop costs: a sparser sampling
	// period needs heavier functions for each to still catch the two
	// samples a span estimate needs.
	scale uint64
}

// genSet runs the request workload on the deterministic simulator and
// returns its hybrid trace: items split over genCores cores, three traced
// functions per item with ±6% seeded cost jitter, item IDs counting up from
// firstID. lookupScale multiplies the lookup cost (1 = steady, 2 = the
// seeded step). Each core draws from its own stream of seed, so the set is
// a pure function of the arguments.
func genSet(seed, stream uint64, firstID uint64, sh setShape, lookupScale uint64) *trace.Set {
	m := sim.MustNew(sim.Config{Cores: genCores})
	parse := m.Syms.MustRegister(fnParse, 2048)
	lookup := m.Syms.MustRegister(fnLookup, 4096)
	render := m.Syms.MustRegister(fnRender, 2048)
	log := trace.NewMarkerLog(genCores, 0)
	pebs := make([]*pmu.PEBS, genCores)
	perCore := sh.items / genCores
	for ci := 0; ci < genCores; ci++ {
		first := firstID + uint64(ci*perCore)
		rng := rand.New(rand.NewPCG(seed, stream*genCores+uint64(ci)))
		jitter := func(uops uint64) uint64 {
			u := uops * sh.scale
			return u - u/16 + rng.Uint64N(u/8+1)
		}
		pebs[ci] = pmu.NewPEBS(pmu.PEBSConfig{DoubleBuffer: true})
		m.Core(ci).PMU.MustProgram(pmu.UopsRetired, sh.reset, pebs[ci])
		m.MustSpawn(ci, func(c *sim.Core) {
			for r := 0; r < perCore; r++ {
				id := first + uint64(r)
				log.Mark(c, id, trace.ItemBegin)
				c.Call(parse, func() { c.Exec(jitter(1500)) })
				c.Call(lookup, func() { c.Exec(jitter(4000) * lookupScale) })
				c.Call(render, func() { c.Exec(jitter(2500)) })
				log.Mark(c, id, trace.ItemEnd)
				c.Exec(300)
			}
		})
	}
	m.Wait()
	var samples []pmu.Sample
	for _, p := range pebs {
		samples = append(samples, p.Samples()...)
	}
	return trace.NewSet(m, log, samples)
}

// hashSets folds every record of the sets into one FNV-1a value: the
// input fingerprint a run reports, equal for equal seeds and different
// for different ones.
func hashSets(sets []*trace.Set) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, s := range sets {
		put(uint64(len(s.Markers)))
		for i := range s.Markers {
			mk := &s.Markers[i]
			put(mk.Item)
			put(mk.TSC)
			put(uint64(mk.Core)<<8 | uint64(mk.Kind))
		}
		put(uint64(len(s.Samples)))
		for i := range s.Samples {
			sm := &s.Samples[i]
			put(sm.TSC)
			put(sm.IP)
			put(uint64(sm.Core))
		}
	}
	return h.Sum64()
}
