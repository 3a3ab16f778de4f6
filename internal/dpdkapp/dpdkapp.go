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

// Config parameterizes one pipeline run.
type Config struct {
	// Classifier is the compiled rule set; nil builds Rules/Build instead.
	Classifier *acl.Classifier
	// Rules and Build are used when Classifier is nil; empty Rules selects
	// the paper's Table III set with its 247-trie build config.
	Rules []acl.Rule
	Build acl.BuildConfig
	// Timing is the classify cost model (zero value = calibrated default).
	Timing acl.TimingConfig
	// Reset is the PEBS reset value R; 0 disables sampling entirely.
	Reset uint64
	// PEBS configures the sampling hardware (zero fields = defaults).
	PEBS pmu.PEBSConfig
	// Markers enables the data-item-switch instrumentation.
	Markers bool
	// MarkerUops is the marking-function cost (0 = trace.DefaultMarkerUops).
	MarkerUops uint64
	// BaselineProbe inserts the golden log-based instrumentation at the
	// beginning and end of rte_acl_classify (the "baseline" of Fig. 9) and
	// records the true spans.
	BaselineProbe bool
	// GapCycles is the tester's inter-packet gap ("sent one by one with a
	// short interval (not burstly)"); default 40000 cycles = 20 µs.
	GapCycles uint64
	// ACLRateCycles/ACLRateUops set the ACL core's execution rate; the
	// default 1/3 (IPC 3) matches the calibration of the classify model.
	ACLRateCycles, ACLRateUops uint64
	// RXUops/TXUops are the per-packet costs of the almost-idle RX and TX
	// threads (rte_eth_rx_burst / tx_burst plus ring work).
	RXUops, TXUops uint64
	// BatchSize makes the ACL thread process packets in fixed-size batches
	// bracketed by a single marker pair carrying a batch ID — the paper's
	// explicit future work ("How to retrieve the IDs from batched
	// data-items is future work"). 0 or 1 disables batching. Per-packet
	// attribution inside a batch is recovered as the batch estimate
	// divided by the batch's membership, recorded in Result.Batches.
	BatchSize int
}

func (c *Config) applyDefaults() {
	if c.Timing == (acl.TimingConfig{}) {
		c.Timing = acl.DefaultTimingConfig()
	}
	if c.GapCycles == 0 {
		c.GapCycles = 40_000
	}
	if c.ACLRateCycles == 0 || c.ACLRateUops == 0 {
		c.ACLRateCycles, c.ACLRateUops = 1, 3
	}
	if c.RXUops == 0 {
		c.RXUops = 150
	}
	if c.TXUops == 0 {
		c.TXUops = 150
	}
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
	cfg.applyDefaults()
	if len(packets) == 0 {
		return nil, fmt.Errorf("dpdkapp: no packets to send")
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

	m, err := sim.New(sim.Config{Cores: NumCores})
	if err != nil {
		return nil, err
	}
	dequeue := m.Syms.MustRegister(FnDequeue, 256)
	prepare := m.Syms.MustRegister(FnPrepare, 512)
	classify := m.Syms.MustRegister(FnClassify, 8192)
	apply := m.Syms.MustRegister(FnApply, 512)

	aclCore := m.Core(CoreACL)
	aclCore.SetRate(cfg.ACLRateCycles, cfg.ACLRateUops)

	var pebs *pmu.PEBS
	if cfg.Reset > 0 {
		pebs = pmu.NewPEBS(cfg.PEBS)
		aclCore.PMU.MustProgram(pmu.UopsRetired, cfg.Reset, pebs)
	}
	log := trace.NewMarkerLog(NumCores, cfg.MarkerUops)

	ingress := queue.New[nettest.Stamped[acl.Packet]](nettest.Wire(4096, 140))
	rxToACL := queue.New[nettest.Stamped[acl.Packet]](queue.Config{Capacity: 1024})
	aclToTX := queue.New[nettest.Stamped[acl.Packet]](queue.Config{Capacity: 1024})
	egress := queue.New[nettest.Stamped[acl.Packet]](nettest.Wire(4096, 140))

	res := &Result{FreqHz: m.FreqHz()}

	m.MustSpawn(CoreGen, func(c *sim.Core) {
		nettest.Generate(c, ingress, packets, cfg.GapCycles)
	})
	m.MustSpawn(CoreRX, func(c *sim.Core) {
		for {
			s, ok := ingress.Pop(c)
			if !ok {
				rxToACL.Close()
				return
			}
			c.Exec(cfg.RXUops)
			rxToACL.Push(c, s)
		}
	})
	batch := cfg.BatchSize
	if batch < 1 {
		batch = 1
	}
	m.MustSpawn(CoreACL, func(c *sim.Core) {
		probeUops := cfg.MarkerUops
		if probeUops == 0 {
			probeUops = trace.DefaultMarkerUops
		}
		rateCy, rateUo := c.Rate()
		meter := acl.NewCoreMeter(c, cfg.Timing)
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
				c.Exec(probeUops) // the golden method's own log costs too
			}
			c.Call(classify, func() {
				cls.ClassifyTimed(pkt, meter)
			})
			if cfg.BaselineProbe {
				t1 = c.Now()
				c.Exec(probeUops)
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
			c.Exec(cfg.TXUops)
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
