package dpdkapp

import (
	"fmt"

	"repro/internal/acl"
	"repro/internal/nettest"
	"repro/internal/pmu"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RunRSS executes the firewall with several ACL worker threads, packets
// spread across them RSS-style by flow hash — the scaled-out version of the
// Fig. 5 architecture ("the same procedure is executed on every core of a
// multi-core CPU. Note that PEBS supports sampling core-related events for
// every core simultaneously").
//
// Topology: tester generator → RX (hashes to per-worker rings) → N ACL
// workers (each instrumented and sampled on its own core, each with its own
// egress ring) → tester sink. Worker cores absorb the TX work; latency is
// measured from wire timestamps so the sink's drain order cannot distort
// it. Item IDs are globally unique, so one merged trace reconstructs every
// packet on its correct core.
func RunRSS(cfg Config, workers int, packets []acl.Packet) (*Result, error) {
	cfg.applyDefaults()
	if workers < 1 {
		return nil, fmt.Errorf("dpdkapp: need at least one ACL worker")
	}
	if len(packets) == 0 {
		return nil, fmt.Errorf("dpdkapp: no packets to send")
	}
	if cfg.BatchSize > 1 {
		return nil, fmt.Errorf("dpdkapp: batching is not modeled for the RSS topology")
	}
	cls := cfg.Classifier
	if cls == nil {
		rules := cfg.Rules
		build := cfg.Build
		if len(rules) == 0 {
			rules = acl.PaperRuleSet()
			build = acl.PaperBuildConfig()
		}
		var err error
		cls, err = acl.Build(rules, build)
		if err != nil {
			return nil, err
		}
	}

	// Cores: 0 generator, 1 RX, 2..2+workers-1 ACL, last sink.
	nCores := workers + 3
	m, err := sim.New(sim.Config{Cores: nCores})
	if err != nil {
		return nil, err
	}
	dequeue := m.Syms.MustRegister(FnDequeue, 256)
	prepare := m.Syms.MustRegister(FnPrepare, 512)
	classify := m.Syms.MustRegister(FnClassify, 8192)
	apply := m.Syms.MustRegister(FnApply, 512)

	log := trace.NewMarkerLog(nCores, cfg.MarkerUops)
	ingress := queue.New[nettest.Stamped[acl.Packet]](nettest.Wire(4096, 140))
	toWorker := make([]*queue.SPSC[nettest.Stamped[acl.Packet]], workers)
	egress := make([]*queue.SPSC[nettest.Stamped[acl.Packet]], workers)
	var pebses []*pmu.PEBS
	for w := 0; w < workers; w++ {
		toWorker[w] = queue.New[nettest.Stamped[acl.Packet]](queue.Config{Capacity: 1024})
		egress[w] = queue.New[nettest.Stamped[acl.Packet]](nettest.Wire(4096, 140))
		core := m.Core(2 + w)
		core.SetRate(cfg.ACLRateCycles, cfg.ACLRateUops)
		if cfg.Reset > 0 {
			pb := pmu.NewPEBS(cfg.PEBS)
			core.PMU.MustProgram(pmu.UopsRetired, cfg.Reset, pb)
			pebses = append(pebses, pb)
		}
	}

	res := &Result{FreqHz: m.FreqHz()}
	m.MustSpawn(0, func(c *sim.Core) {
		nettest.Generate(c, ingress, packets, cfg.GapCycles)
	})
	m.MustSpawn(1, func(c *sim.Core) {
		for {
			s, ok := ingress.Pop(c)
			if !ok {
				for _, r := range toWorker {
					r.Close()
				}
				return
			}
			c.Exec(cfg.RXUops)
			// RSS: a flow hash spreads packets across worker queues.
			toWorker[flowHash(s.Payload)%uint64(workers)].Push(c, s)
		}
	})
	for w := 0; w < workers; w++ {
		w := w
		m.MustSpawn(2+w, func(c *sim.Core) {
			rateCy, rateUo := c.Rate()
			meter := acl.NewCoreMeter(c, cfg.Timing)
			for {
				s, arrival, ok := toWorker[w].PopWait(c)
				if !ok {
					egress[w].Close()
					return
				}
				if arrival > c.Now() {
					spinUops := (arrival - c.Now()) * rateUo / rateCy
					if spinUops > 0 {
						c.Call(dequeue, func() { c.Exec(spinUops) })
					}
					c.AdvanceTo(arrival)
				}
				c.Exec(toWorker[w].PopCostUops())
				pkt := s.Payload
				if cfg.Markers {
					log.Mark(c, pkt.ID, trace.ItemBegin)
				}
				c.Call(prepare, func() { c.Exec(90) })
				c.Call(classify, func() { cls.ClassifyTimed(pkt, meter) })
				c.Call(apply, func() { c.Exec(60) })
				if cfg.Markers {
					log.Mark(c, pkt.ID, trace.ItemEnd)
				}
				c.Exec(cfg.TXUops) // the TX burst runs on the worker core
				egress[w].Push(c, s)
			}
		})
	}
	m.MustSpawn(nCores-1, func(c *sim.Core) {
		// Drain each worker's egress fully; arrival-based measurement
		// makes the order irrelevant.
		for _, e := range egress {
			res.Latencies = append(res.Latencies, nettest.DrainByArrival(c, e)...)
		}
	})
	m.Wait()

	for _, pb := range pebses {
		res.SampleCount += pb.Count()
		res.SampleBytes += pb.BytesWritten()
	}
	res.Set = trace.NewSet(m, log, pmu.MergeSamples(pebses...))
	return res, nil
}

// flowHash mixes the packet's flow tuple, as a NIC's RSS hash would.
func flowHash(p acl.Packet) uint64 {
	h := uint64(p.SrcAddr)<<32 | uint64(p.DstAddr)
	h ^= uint64(p.SrcPort)<<16 | uint64(p.DstPort)
	h *= 0x9e3779b97f4a7c15
	h ^= h >> 32
	return h
}
