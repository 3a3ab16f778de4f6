package pmu

import "repro/internal/obs"

// PEBSConfig parameterizes the hardware sampling model. The defaults encode
// the costs measured by the paper and its companion study [6] on Skylake.
type PEBSConfig struct {
	// SampleCostCycles is the per-sample overhead the sampled core pays.
	// The paper's previous work measured "approximately 250 ns per sample";
	// at the 2.0 GHz simulated clock that is 500 cycles.
	SampleCostCycles uint64
	// BufferEntries is the capacity of the PEBS buffer. The CPU raises an
	// interrupt only when (and only when) the buffer becomes full.
	BufferEntries int
	// InterruptCostCycles is the cost of the buffer-full interrupt plus the
	// kernel-module handler that asks the helper program to copy the buffer
	// out (§III-E). Charged to the sampled core.
	InterruptCostCycles uint64
	// RecordBytes is the size of one hardware PEBS record as written to the
	// buffer; used for the §IV-C3 data-rate accounting. Skylake's PEBS
	// record format occupies 192 bytes.
	RecordBytes uint64
	// DoubleBuffer enables the §III-E optimization the paper leaves as
	// future work: "double buffering (so that the helper program can
	// re-enable PEBS immediately)". With it, the buffer-full interrupt
	// only swaps buffers and wakes the helper — the sampled core pays
	// SwapCostCycles instead of the full drain handshake, and the drain
	// happens off the hot path.
	DoubleBuffer bool
	// SwapCostCycles is the buffer-swap interrupt cost under
	// DoubleBuffer (default 1000 cycles = 500 ns).
	SwapCostCycles uint64
	// SkidBytes models PEBS shadowing: the architectural skid between the
	// counter overflow and the instruction whose state is captured. Real
	// PEBS is "precise" to within one instruction; a non-zero skid shifts
	// every recorded IP forward by this many bytes, which near a function's
	// end can attribute the sample to the *next* function — a failure mode
	// boundary-sensitive analyses should be tested against. Default 0.
	SkidBytes uint64
	// OverflowPolicy selects what happens when the debug-store buffer
	// fills. The default (OverflowDrain) is the ideal helper that always
	// keeps up; the other policies model the degraded realities the
	// faults/ layer and the graceful-degradation tests pin down.
	OverflowPolicy OverflowPolicy
	// HelperLagRecords applies to OverflowDropBurst: how many records the
	// CPU discards (the burst length) before the late helper finally
	// drains the buffer and recording resumes. Default BufferEntries/4.
	HelperLagRecords int
}

// OverflowPolicy is the buffer-full semantics of the PEBS debug store.
type OverflowPolicy uint8

const (
	// OverflowDrain: the buffer-full interrupt wakes the helper, which
	// copies the buffer out before the next record arrives; nothing is
	// lost unless flush-loss injection says so. This is the paper's
	// assumed steady state.
	OverflowDrain OverflowPolicy = iota
	// OverflowWrap: the debug-store area behaves as a ring — when full,
	// each new record overwrites the oldest one. No drain interrupt fires;
	// only the final BufferEntries records of each drain window survive.
	OverflowWrap
	// OverflowDropBurst: when the buffer fills before the helper drains
	// it, the CPU stops recording; every record arriving while full is
	// dropped, forming one contiguous loss burst, until HelperLagRecords
	// have been discarded and the helper finally drains the buffer. This
	// is the debug-store overflow that motivates bursty (never i.i.d.)
	// sample loss in the fault model.
	OverflowDropBurst
)

// DefaultPEBSConfig returns the Skylake-calibrated defaults at 2.0 GHz.
func DefaultPEBSConfig() PEBSConfig {
	return PEBSConfig{
		SampleCostCycles:    500, // 250 ns @ 2.0 GHz
		BufferEntries:       4096,
		InterruptCostCycles: 10000, // 5 µs interrupt + drain handshake
		RecordBytes:         192,
		SwapCostCycles:      1000, // 500 ns buffer swap when DoubleBuffer
	}
}

// PEBS models the hardware sampling mechanism of one core: a memory buffer
// the CPU appends fixed-format records to, with an interrupt raised on
// buffer full so the kernel module can have a helper program copy the data
// to userspace (the simple-pebs flow of §III-E).
type PEBS struct {
	cfg PEBSConfig
	// buf is the in-flight hardware buffer. A drain hands it to the helper
	// whole and the next record takes a fresh one — the §III-E double
	// buffer — so a record is written once and never moved until Samples.
	buf []Sample
	// head is the oldest record once an OverflowWrap ring has wrapped.
	head       int
	store      [][]Sample // buffers the helper has taken over, oldest first
	stored     int        // records in store
	interrupts uint64
	dropped    uint64
	burstLag   int    // OverflowDropBurst: records dropped since the buffer filled
	bursts     uint64 // OverflowDropBurst/OverflowWrap: contiguous loss episodes

	// Cached self-telemetry handles (nil when the default registry was
	// disabled at construction; all updates are then nil-check no-ops).
	// Counters aggregate across every PEBS unit in the process; the
	// occupancy gauge is last-writer-wins, which for the usual one-unit-
	// per-machine setup is simply "the" ring.
	mOcc        *obs.Gauge
	mDropped    *obs.Counter
	mInterrupts *obs.Counter
	mFlushes    *obs.Counter
	mBursts     *obs.Counter
}

// NewPEBS creates a PEBS unit. A zero-value field in cfg falls back to the
// corresponding default, so callers can override selectively.
func NewPEBS(cfg PEBSConfig) *PEBS {
	d := DefaultPEBSConfig()
	if cfg.SampleCostCycles == 0 {
		cfg.SampleCostCycles = d.SampleCostCycles
	}
	if cfg.BufferEntries == 0 {
		cfg.BufferEntries = d.BufferEntries
	}
	if cfg.InterruptCostCycles == 0 {
		cfg.InterruptCostCycles = d.InterruptCostCycles
	}
	if cfg.RecordBytes == 0 {
		cfg.RecordBytes = d.RecordBytes
	}
	if cfg.SwapCostCycles == 0 {
		cfg.SwapCostCycles = 1000
	}
	p := &PEBS{cfg: cfg}
	if reg := obs.Default(); reg != nil {
		p.mOcc = reg.Gauge("fluct_pmu_ring_occupancy")
		p.mDropped = reg.Counter("fluct_pmu_dropped_total")
		p.mInterrupts = reg.Counter("fluct_pmu_interrupts_total")
		p.mFlushes = reg.Counter("fluct_pmu_flushes_total")
		p.mBursts = reg.Counter("fluct_pmu_loss_bursts_total")
	}
	return p
}

// Overflow implements Recorder: the CPU appends a record and handles a
// full buffer per the configured OverflowPolicy — drain interrupt
// (default), ring-wrap, or a contiguous drop burst until the late helper
// catches up.
func (p *PEBS) Overflow(ev Event, ctx Ctx) uint64 {
	s := Sample{TSC: ctx.TSC, IP: ctx.IP + p.cfg.SkidBytes, Core: ctx.Core, Event: ev, Regs: CaptureRegs(ctx.Regs)}
	oh := p.cfg.SampleCostCycles // the PEBS assist runs even when the record is discarded

	if len(p.buf) >= p.cfg.BufferEntries {
		switch p.cfg.OverflowPolicy {
		case OverflowWrap:
			// Ring semantics: evict the oldest record, keep the newest.
			if p.burstLag == 0 {
				p.bursts++
				p.mBursts.Inc()
			}
			p.burstLag++
			p.buf[p.head] = s
			p.head = (p.head + 1) % len(p.buf)
			p.dropped++
			p.mDropped.Inc()
			return oh
		case OverflowDropBurst:
			// The helper is late; the CPU silently discards records until
			// the lag is over, then the drain interrupt finally lands.
			if p.burstLag == 0 {
				p.bursts++
				p.mBursts.Inc()
			}
			p.burstLag++
			p.dropped++
			p.mDropped.Inc()
			lag := p.cfg.HelperLagRecords
			if lag <= 0 {
				lag = p.cfg.BufferEntries / 4
			}
			if p.burstLag >= lag {
				oh += p.cfg.InterruptCostCycles
				p.interrupts++
				p.mInterrupts.Inc()
				p.flush()
				p.burstLag = 0
			}
			return oh
		}
	}

	if p.buf == nil {
		p.buf = make([]Sample, 0, p.cfg.BufferEntries)
	}
	p.buf = append(p.buf, s)
	p.mOcc.SetInt(len(p.buf))
	if len(p.buf) >= p.cfg.BufferEntries && p.cfg.OverflowPolicy == OverflowDrain {
		if p.cfg.DoubleBuffer {
			oh += p.cfg.SwapCostCycles
		} else {
			oh += p.cfg.InterruptCostCycles
		}
		p.interrupts++
		p.mInterrupts.Inc()
		p.flush()
	}
	return oh
}

// flush models the helper program taking the full buffer over and
// re-enabling PEBS.
func (p *PEBS) flush() {
	p.mFlushes.Inc()
	if p.head != 0 {
		// A wrapped ring drains oldest first.
		p.buf = append(append(make([]Sample, 0, len(p.buf)), p.buf[p.head:]...), p.buf[:p.head]...)
	}
	p.store = append(p.store, p.buf)
	p.stored += len(p.buf)
	p.buf = nil
	p.head = 0
	p.mOcc.SetInt(0)
}

// Samples drains the hardware buffer and returns every record taken over so
// far, concatenated once at exact size. Call it once at the end of a run.
func (p *PEBS) Samples() []Sample {
	flat := len(p.buf) == 0 && len(p.store) == 1 && len(p.store[0]) == cap(p.store[0])
	if !flat {
		p.store = [][]Sample{MergeSamples(p)}
	}
	return p.store[0]
}

// MergeSamples drains every unit and returns all their records, unit by
// unit in argument order, in one slice allocated at exact size (nil when
// there are none) — what a multi-core run hands to trace.NewSet.
func MergeSamples(units ...*PEBS) []Sample {
	n := 0
	for _, p := range units {
		if len(p.buf) > 0 {
			p.flush()
		}
		n += p.stored
	}
	if n == 0 {
		return nil
	}
	out := make([]Sample, 0, n)
	for _, p := range units {
		for _, b := range p.store {
			out = append(out, b...)
		}
	}
	return out
}

// Count returns the number of samples taken (including dropped ones), which
// drives the data-rate accounting of §IV-C3.
func (p *PEBS) Count() uint64 {
	return uint64(p.stored+len(p.buf)) + p.dropped
}

// BytesWritten returns the total volume of PEBS records generated.
func (p *PEBS) BytesWritten() uint64 { return p.Count() * p.cfg.RecordBytes }

// Interrupts returns how many buffer-full interrupts were raised.
func (p *PEBS) Interrupts() uint64 { return p.interrupts }

// Dropped returns how many samples the configured overflow policy lost
// (wrap evictions, drop bursts).
func (p *PEBS) Dropped() uint64 { return p.dropped }

// DroppedBursts returns how many contiguous loss episodes the overflow
// policy produced (0 under OverflowDrain).
func (p *PEBS) DroppedBursts() uint64 { return p.bursts }

// Config returns the effective configuration.
func (p *PEBS) Config() PEBSConfig { return p.cfg }

// SoftSamplerConfig parameterizes the perf-style software sampling model:
// the traditional performance counters raise an interrupt to the OS on every
// overflow, and the kernel samples the program state in software.
type SoftSamplerConfig struct {
	// SampleCostCycles is the per-sample suspension of the target. Weaver
	// [16] and the paper's Fig. 4 place the perf sampling path around 10 µs
	// regardless of the configured rate; 19200 cycles is 9.6 µs @ 2.0 GHz.
	SampleCostCycles uint64
	// RecordBytes is the size of one perf sample record written to the ring
	// buffer (a perf_event sample with IP, TID, TIME and regs).
	RecordBytes uint64
	// ThrottleIntervalCycles models perf's CPU-time throttle: overflows
	// arriving within this many cycles of the previous accepted sample are
	// dropped (counted in Throttled). The paper's Fig. 4 methodology notes
	// "We disable the throttling mechanism of perf" — 0 (the default)
	// reproduces that disabled state; a positive value shows what the
	// throttle would have done to the achievable interval.
	ThrottleIntervalCycles uint64
}

// DefaultSoftSamplerConfig returns defaults matching the Fig. 4 floor.
func DefaultSoftSamplerConfig() SoftSamplerConfig {
	return SoftSamplerConfig{SampleCostCycles: 19200, RecordBytes: 64}
}

// SoftSampler models software sampling on the traditional counters: the
// counters themselves are hardware, but every overflow suspends the target
// while the OS samples it, so the achievable sample interval cannot drop
// below the sampling path's own latency (Fig. 4, §VI-B).
type SoftSampler struct {
	cfg       SoftSamplerConfig
	store     []Sample
	lastTSC   uint64
	haveLast  bool
	throttled uint64
}

// NewSoftSampler creates a software sampler; zero fields take defaults.
func NewSoftSampler(cfg SoftSamplerConfig) *SoftSampler {
	d := DefaultSoftSamplerConfig()
	if cfg.SampleCostCycles == 0 {
		cfg.SampleCostCycles = d.SampleCostCycles
	}
	if cfg.RecordBytes == 0 {
		cfg.RecordBytes = d.RecordBytes
	}
	return &SoftSampler{cfg: cfg}
}

// Overflow implements Recorder.
func (s *SoftSampler) Overflow(ev Event, ctx Ctx) uint64 {
	if s.cfg.ThrottleIntervalCycles > 0 && s.haveLast &&
		ctx.TSC-s.lastTSC < s.cfg.ThrottleIntervalCycles {
		s.throttled++
		return 0 // the kernel drops the sample without waking the sampler
	}
	smp := Sample{TSC: ctx.TSC, IP: ctx.IP, Core: ctx.Core, Event: ev, Regs: CaptureRegs(ctx.Regs)}
	s.store = append(s.store, smp)
	s.lastTSC = ctx.TSC
	s.haveLast = true
	return s.cfg.SampleCostCycles
}

// Throttled returns how many overflows the throttle suppressed.
func (s *SoftSampler) Throttled() uint64 { return s.throttled }

// Samples returns every record taken so far.
func (s *SoftSampler) Samples() []Sample { return s.store }

// Count returns the number of samples taken.
func (s *SoftSampler) Count() uint64 { return uint64(len(s.store)) }

// BytesWritten returns the total sample volume generated.
func (s *SoftSampler) BytesWritten() uint64 { return s.Count() * s.cfg.RecordBytes }

// Config returns the effective configuration.
func (s *SoftSampler) Config() SoftSamplerConfig { return s.cfg }
