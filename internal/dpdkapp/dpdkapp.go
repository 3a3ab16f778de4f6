// Package dpdkapp rebuilds the paper's realistic case study (§IV-C): a
// DPDK-style firewall with three pinned worker threads — RX, ACL and TX —
// connected by software rings, classifying packets against the Table III
// rule set, fed and measured by a GNET-like hardware tester.
//
// The ACL thread is the instrumented and sampled one ("because the other
// two threads does almost nothing"): a marker fires right after it retrieves
// a packet from the RX ring and right before it pushes the packet toward
// TX, and PEBS samples its core. The per-packet elapsed time of
// rte_acl_classify estimated from that trace is Fig. 9; the latency
// increase measured by the tester is Fig. 10.
//
// The hardware is fixed. The tester sends packets "one by one with a short
// interval (not burstly)", 40,000 cycles (20 µs) apart. The ACL core runs
// at 1 cycle per 3 uops (IPC 3, the calibration of
// acl.DefaultTimingConfig's classify model, which it charges). The
// almost-idle RX and TX threads cost 150 uops per packet
// (rte_eth_rx_burst / tx_burst plus ring work). Markers and the baseline
// probe each cost trace.DefaultMarkerUops, and PEBS runs with
// pmu.PEBSConfig's defaults.
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

// Core assignment on the 5-core machine: two tester cores bracket the
// three-thread pipeline of §IV-C1.
const (
	CoreGen  = 0 // GNET generator (tester hardware)
	CoreRX   = 1 // RX worker
	CoreACL  = 2 // ACL worker (instrumented + sampled)
	CoreTX   = 3 // TX worker
	CoreSink = 4 // GNET sink (tester hardware)
	NumCores = 5
)

// Function symbol names registered for the ACL thread.
const (
	FnDequeue  = "rte_ring_dequeue"
	FnPrepare  = "acl_prepare_key"
	FnClassify = "rte_acl_classify"
	FnApply    = "acl_apply_result"
)

// The pipeline's fixed hardware; see the package comment.
const (
	gapCycles     = 40_000
	aclRateCycles = 1
	aclRateUops   = 3
	rxUops        = 150
	txUops        = 150
)

// Config parameterizes one pipeline run.
type Config struct {
	// Classifier is the compiled rule set; nil builds the paper's Table III
	// set with its 247-trie build config.
	Classifier *acl.Classifier
	// Reset is the PEBS reset value R; 0 disables sampling entirely.
	Reset uint64
	// Markers enables the data-item-switch instrumentation.
	Markers bool
	// BaselineProbe inserts the golden log-based instrumentation at the
	// beginning and end of rte_acl_classify (the "baseline" of Fig. 9) and
	// records the true spans.
	BaselineProbe bool
	// BatchSize makes the ACL thread process packets in fixed-size batches
	// bracketed by a single marker pair carrying a batch ID — the paper's
	// explicit future work ("How to retrieve the IDs from batched
	// data-items is future work"). 0 or 1 disables batching. Per-packet
	// attribution inside a batch is recovered as the batch estimate
	// divided by the batch's membership, recorded in Result.Batches.
	BatchSize int

	// gapCycles overrides the tester's gap (0 = gapCycles); the batching
	// tests send dense traffic with it.
	gapCycles uint64
}

// BaselineSpan is one golden measurement: the true rte_acl_classify elapsed
// time for one packet, obtained by direct instrumentation.
type BaselineSpan struct {
	ID     uint64
	Cycles uint64
}

// Result is everything one run produces.
type Result struct {
	// Set is the hybrid trace (markers + samples); markers empty when
	// Config.Markers was off, samples empty when Reset was 0.
	Set *trace.Set
	// Latencies are the tester-measured end-to-end per-packet latencies,
	// in arrival order.
	Latencies []nettest.Latency[acl.Packet]
	// Baseline holds the golden classify spans when BaselineProbe was on.
	Baseline []BaselineSpan
	// SampleCount and SampleBytes summarize the PEBS data volume (§IV-C3).
	SampleCount uint64
	SampleBytes uint64
	// Batches maps batch ID → member packet IDs when batching was on.
	Batches []Batch
	// FreqHz is the machine clock for conversions.
	FreqHz uint64
}

// Batch records one marker-bracketed batch and its member packets.
type Batch struct {
	ID      uint64
	Packets []uint64
}

// CyclesToMicros converts cycles to µs at the run's clock.
func (r *Result) CyclesToMicros(cy uint64) float64 {
	return float64(cy) * 1e6 / float64(r.FreqHz)
}

// MeanLatencyMicros returns the tester's average packet latency, the L
// quantity of Fig. 10.
func (r *Result) MeanLatencyMicros() float64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	var sum uint64
	for _, l := range r.Latencies {
		sum += l.Cycles
	}
	return r.CyclesToMicros(sum) / float64(len(r.Latencies))
}

// Run executes the pipeline over the given packets and returns the traces
// and measurements.
func Run(cfg Config, packets []acl.Packet) (*Result, error) {
	if len(packets) == 0 {
		return nil, fmt.Errorf("dpdkapp: no packets to send")
	}
	cls := cfg.Classifier
	if cls == nil {
		var err error
		if cls, err = acl.Build(acl.PaperRuleSet(), acl.PaperBuildConfig()); err != nil {
			return nil, err
		}
	}
	gap := cfg.gapCycles
	if gap == 0 {
		gap = gapCycles
	}

	m, err := sim.New(sim.Config{Cores: NumCores})
	if err != nil {
		return nil, err
	}
	dequeue := m.Syms.MustRegister(FnDequeue, 256)
	prepare := m.Syms.MustRegister(FnPrepare, 512)
	classify := m.Syms.MustRegister(FnClassify, 8192)
	apply := m.Syms.MustRegister(FnApply, 512)

	aclCore := m.Core(CoreACL)
	aclCore.SetRate(aclRateCycles, aclRateUops)

	var pebs *pmu.PEBS
	if cfg.Reset > 0 {
		pebs = pmu.NewPEBS(pmu.PEBSConfig{})
		aclCore.PMU.MustProgram(pmu.UopsRetired, cfg.Reset, pebs)
	}
	log := trace.NewMarkerLog(NumCores, trace.DefaultMarkerUops)

	ingress := queue.New[nettest.Stamped[acl.Packet]](nettest.Wire(4096, 140))
	rxToACL := queue.New[nettest.Stamped[acl.Packet]](queue.Config{Capacity: 1024})
	aclToTX := queue.New[nettest.Stamped[acl.Packet]](queue.Config{Capacity: 1024})
	egress := queue.New[nettest.Stamped[acl.Packet]](nettest.Wire(4096, 140))

	res := &Result{FreqHz: m.FreqHz()}

	m.MustSpawn(CoreGen, func(c *sim.Core) {
		nettest.Generate(c, ingress, packets, gap)
	})
	m.MustSpawn(CoreRX, func(c *sim.Core) {
		for {
			s, ok := ingress.Pop(c)
			if !ok {
				rxToACL.Close()
				return
			}
			c.Exec(rxUops)
			rxToACL.Push(c, s)
		}
	})
	batch := cfg.BatchSize
	if batch < 1 {
		batch = 1
	}
	m.MustSpawn(CoreACL, func(c *sim.Core) {
		rateCy, rateUo := c.Rate()
		meter := acl.NewCoreMeter(c, acl.DefaultTimingConfig())
		// popOne busy-polls the RX ring, DPDK-style: the spin retires
		// instructions and is therefore sampled (those samples attribute
		// to rte_ring_dequeue, outside any data-item interval).
		popOne := func() (nettest.Stamped[acl.Packet], bool) {
			s, arrival, ok := rxToACL.PopWait(c)
			if !ok {
				return s, false
			}
			if arrival > c.Now() {
				spinUops := (arrival - c.Now()) * rateUo / rateCy
				if spinUops > 0 {
					c.Call(dequeue, func() { c.Exec(spinUops) })
				}
				c.AdvanceTo(arrival)
			}
			c.Exec(rxToACL.PopCostUops())
			return s, true
		}
		process := func(pkt acl.Packet) {
			c.Call(prepare, func() { c.Exec(90) })
			var t0, t1 uint64
			if cfg.BaselineProbe {
				t0 = c.Now()
				c.Exec(trace.DefaultMarkerUops) // the golden method's own log costs too
			}
			c.Call(classify, func() {
				cls.ClassifyTimed(pkt, meter)
			})
			if cfg.BaselineProbe {
				t1 = c.Now()
				c.Exec(trace.DefaultMarkerUops)
				res.Baseline = append(res.Baseline, BaselineSpan{ID: pkt.ID, Cycles: t1 - t0})
			}
			c.Call(apply, func() { c.Exec(60) })
		}
		for {
			// Assemble one batch (size 1 unless batching is enabled).
			burst := make([]nettest.Stamped[acl.Packet], 0, batch)
			for len(burst) < batch {
				s, ok := popOne()
				if !ok {
					break
				}
				burst = append(burst, s)
			}
			if len(burst) == 0 {
				aclToTX.Close()
				return
			}
			if cfg.Markers {
				log.Mark(c, burst[0].Payload.ID, trace.ItemBegin)
			}
			for _, s := range burst {
				process(s.Payload)
			}
			if cfg.Markers {
				log.Mark(c, burst[0].Payload.ID, trace.ItemEnd)
			}
			if batch > 1 {
				b := Batch{ID: burst[0].Payload.ID}
				for _, s := range burst {
					b.Packets = append(b.Packets, s.Payload.ID)
				}
				res.Batches = append(res.Batches, b)
			}
			for _, s := range burst {
				aclToTX.Push(c, s)
			}
		}
	})
	m.MustSpawn(CoreTX, func(c *sim.Core) {
		for {
			s, ok := aclToTX.Pop(c)
			if !ok {
				egress.Close()
				return
			}
			c.Exec(txUops)
			egress.Push(c, s)
		}
	})
	m.MustSpawn(CoreSink, func(c *sim.Core) {
		res.Latencies = nettest.Drain(c, egress)
	})
	m.Wait()

	var samples []pmu.Sample
	if pebs != nil {
		samples = pebs.Samples()
		res.SampleCount = pebs.Count()
		res.SampleBytes = pebs.BytesWritten()
	}
	res.Set = trace.NewSet(m, log, samples)
	return res, nil
}
