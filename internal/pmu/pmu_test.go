package pmu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fakeRecorder counts overflows with a fixed overhead.
type fakeRecorder struct {
	samples []Sample
	cost    uint64
}

func (r *fakeRecorder) Overflow(ev Event, ctx Ctx) uint64 {
	s := Sample{TSC: ctx.TSC, IP: ctx.IP, Core: ctx.Core, Event: ev, Regs: CaptureRegs(ctx.Regs)}
	r.samples = append(r.samples, s)
	return r.cost
}

func (r *fakeRecorder) Samples() []Sample { return r.samples }

func TestEventString(t *testing.T) {
	if UopsRetired.String() != "UOPS_RETIRED.ALL" {
		t.Errorf("UopsRetired = %q", UopsRetired.String())
	}
	if Event(250).String() != "EVENT_UNKNOWN" {
		t.Errorf("unknown event = %q", Event(250).String())
	}
	for e := Event(0); e < NumEvents; e++ {
		if e.String() == "" || e.String() == "EVENT_UNKNOWN" {
			t.Errorf("event %d has no name", e)
		}
	}
}

func TestProgramValidation(t *testing.T) {
	p := New()
	rec := &fakeRecorder{}
	if _, err := p.Program(NumEvents, 100, rec); err == nil {
		t.Error("accepted unknown event")
	}
	if _, err := p.Program(UopsRetired, 0, rec); err == nil {
		t.Error("accepted zero reset value")
	}
	if _, err := p.Program(UopsRetired, 100, nil); err == nil {
		t.Error("accepted nil recorder")
	}
	for i := 0; i < MaxCounters; i++ {
		if _, err := p.Program(UopsRetired, 100, rec); err != nil {
			t.Fatalf("counter %d rejected: %v", i, err)
		}
	}
	if _, err := p.Program(UopsRetired, 100, rec); err == nil {
		t.Error("accepted more than MaxCounters counters")
	}
}

func TestCounterOverflowEveryR(t *testing.T) {
	p := New()
	rec := &fakeRecorder{}
	c := p.MustProgram(UopsRetired, 1000, rec)
	for i := 0; i < 10; i++ {
		p.Add(UopsRetired, 500, Ctx{TSC: uint64(i)})
	}
	// 5000 events / R=1000 = 5 overflows.
	if c.Overflows() != 5 {
		t.Errorf("overflows = %d, want 5", c.Overflows())
	}
	if c.Total() != 5000 {
		t.Errorf("total = %d, want 5000", c.Total())
	}
	if len(rec.samples) != 5 {
		t.Errorf("samples = %d, want 5", len(rec.samples))
	}
}

func TestAddReturnsOverheadOnOverflowOnly(t *testing.T) {
	p := New()
	rec := &fakeRecorder{cost: 500}
	p.MustProgram(UopsRetired, 100, rec)
	if oh := p.Add(UopsRetired, 99, Ctx{}); oh != 0 {
		t.Errorf("pre-overflow overhead = %d, want 0", oh)
	}
	if oh := p.Add(UopsRetired, 1, Ctx{}); oh != 500 {
		t.Errorf("overflow overhead = %d, want 500", oh)
	}
}

func TestAddHandlesMultipleOverflowsInOneBlock(t *testing.T) {
	p := New()
	rec := &fakeRecorder{}
	c := p.MustProgram(UopsRetired, 10, rec)
	p.Add(UopsRetired, 35, Ctx{})
	if c.Overflows() != 3 {
		t.Errorf("overflows = %d, want 3", c.Overflows())
	}
	if d := p.Distance(UopsRetired); d != 5 {
		t.Errorf("distance after 35 events = %d, want 5", d)
	}
}

func TestDistance(t *testing.T) {
	p := New()
	rec := &fakeRecorder{}
	if d := p.Distance(UopsRetired); d != math.MaxUint64 {
		t.Errorf("distance with no counters = %d, want max", d)
	}
	p.MustProgram(UopsRetired, 100, rec)
	p.MustProgram(UopsRetired, 60, rec)
	p.MustProgram(LLCMisses, 5, rec)
	if d := p.Distance(UopsRetired); d != 60 {
		t.Errorf("distance = %d, want 60 (min of two counters)", d)
	}
	if d := p.Distance(LLCMisses); d != 5 {
		t.Errorf("LLC distance = %d, want 5", d)
	}
	p.Add(UopsRetired, 30, Ctx{})
	if d := p.Distance(UopsRetired); d != 30 {
		t.Errorf("distance after 30 = %d, want 30", d)
	}
}

func TestDisabledPMUCountsNothing(t *testing.T) {
	p := New()
	rec := &fakeRecorder{cost: 500}
	c := p.MustProgram(UopsRetired, 10, rec)
	p.SetEnabled(false)
	if oh := p.Add(UopsRetired, 1000, Ctx{}); oh != 0 {
		t.Errorf("disabled PMU returned overhead %d", oh)
	}
	if c.Total() != 0 || c.Overflows() != 0 {
		t.Error("disabled PMU still counted")
	}
	if d := p.Distance(UopsRetired); d != math.MaxUint64 {
		t.Errorf("disabled PMU distance = %d, want max", d)
	}
	p.SetEnabled(true)
	p.Add(UopsRetired, 10, Ctx{})
	if c.Overflows() != 1 {
		t.Error("re-enabled PMU did not count")
	}
}

func TestSampleCarriesContext(t *testing.T) {
	p := New()
	rec := &fakeRecorder{}
	p.MustProgram(LLCMisses, 1, rec)
	regs := [NumRegs]uint64{}
	regs[R13] = 777
	p.Add(LLCMisses, 1, Ctx{TSC: 42, IP: 0x400100, Core: 3, Regs: &regs})
	if len(rec.samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(rec.samples))
	}
	s := rec.samples[0]
	if s.TSC != 42 || s.IP != 0x400100 || s.Core != 3 || s.Event != LLCMisses || s.Regs[R13] != 777 {
		t.Errorf("bad sample %+v", s)
	}
}

func TestPEBSBufferInterruptOnFull(t *testing.T) {
	pb := NewPEBS(PEBSConfig{SampleCostCycles: 500, BufferEntries: 4, InterruptCostCycles: 10000})
	var total uint64
	for i := 0; i < 4; i++ {
		total += pb.Overflow(UopsRetired, Ctx{TSC: uint64(i)})
	}
	// 3 plain samples at 500 + 1 sample that also fills the buffer.
	if want := uint64(4*500 + 10000); total != want {
		t.Errorf("overhead = %d, want %d", total, want)
	}
	if pb.Interrupts() != 1 {
		t.Errorf("interrupts = %d, want 1", pb.Interrupts())
	}
	if got := len(pb.Samples()); got != 4 {
		t.Errorf("samples = %d, want 4", got)
	}
}

func TestPEBSSamplesDrainsPartialBuffer(t *testing.T) {
	pb := NewPEBS(PEBSConfig{BufferEntries: 100})
	pb.Overflow(UopsRetired, Ctx{TSC: 1})
	pb.Overflow(UopsRetired, Ctx{TSC: 2})
	if got := len(pb.Samples()); got != 2 {
		t.Errorf("samples = %d, want 2", got)
	}
	if pb.Count() != 2 {
		t.Errorf("count = %d, want 2", pb.Count())
	}
}

func TestPEBSBytesWritten(t *testing.T) {
	pb := NewPEBS(PEBSConfig{RecordBytes: 192})
	for i := 0; i < 10; i++ {
		pb.Overflow(UopsRetired, Ctx{})
	}
	if got := pb.BytesWritten(); got != 1920 {
		t.Errorf("bytes = %d, want 1920", got)
	}
}

// TestPEBSFlushLossInjection: a helper that flushes late loses the records
// that arrive meanwhile, and the unit still counts them as taken.
func TestPEBSFlushLossInjection(t *testing.T) {
	pb := NewPEBS(PEBSConfig{BufferEntries: 2, OverflowPolicy: OverflowDropBurst, HelperLagRecords: 2})
	for i := 0; i < 8; i++ {
		pb.Overflow(UopsRetired, Ctx{TSC: uint64(i)})
	}
	// Each full buffer is flushed 2 records late: records 2, 3, 6 and 7
	// are dropped, 0, 1, 4 and 5 kept.
	kept := pb.Samples()
	if len(kept) != 4 || kept[0].TSC != 0 || kept[1].TSC != 1 || kept[2].TSC != 4 || kept[3].TSC != 5 {
		t.Errorf("kept samples = %+v, want TSCs 0, 1, 4, 5", kept)
	}
	if pb.Dropped() != 4 {
		t.Errorf("dropped = %d, want 4", pb.Dropped())
	}
	if pb.Count() != 8 {
		t.Errorf("count = %d, want 8 (drops still counted)", pb.Count())
	}
}

func TestPEBSDoubleBufferCheapensInterrupt(t *testing.T) {
	single := NewPEBS(PEBSConfig{BufferEntries: 2})
	double := NewPEBS(PEBSConfig{BufferEntries: 2, DoubleBuffer: true})
	var ohS, ohD uint64
	for i := 0; i < 4; i++ {
		ohS += single.Overflow(UopsRetired, Ctx{})
		ohD += double.Overflow(UopsRetired, Ctx{})
	}
	if ohD >= ohS {
		t.Errorf("double-buffered overhead %d not below single %d", ohD, ohS)
	}
	// Both retain every sample; double buffering changes cost, not data.
	if len(single.Samples()) != 4 || len(double.Samples()) != 4 {
		t.Error("samples lost")
	}
	if single.Interrupts() != 2 || double.Interrupts() != 2 {
		t.Error("interrupt counting wrong")
	}
	// Expected exact costs: 4 samples * 500 + 2 * (10000 vs 1000).
	if ohS != 4*500+2*10000 || ohD != 4*500+2*1000 {
		t.Errorf("costs = %d/%d", ohS, ohD)
	}
}

func TestPEBSDefaultsFill(t *testing.T) {
	pb := NewPEBS(PEBSConfig{})
	d := DefaultPEBSConfig()
	if pb.Config() != d {
		t.Errorf("zero config did not take defaults: %+v vs %+v", pb.Config(), d)
	}
}

func TestSoftSamplerCostDominates(t *testing.T) {
	ss := NewSoftSampler(SoftSamplerConfig{})
	oh := ss.Overflow(UopsRetired, Ctx{TSC: 5})
	if oh != DefaultSoftSamplerConfig().SampleCostCycles {
		t.Errorf("soft overhead = %d, want %d", oh, DefaultSoftSamplerConfig().SampleCostCycles)
	}
	if pebs := DefaultPEBSConfig().SampleCostCycles; oh <= pebs*10 {
		t.Errorf("software sampling (%d cy) should be >10x PEBS (%d cy)", oh, pebs)
	}
	if ss.Count() != 1 || len(ss.Samples()) != 1 {
		t.Error("sample not recorded")
	}
	if ss.BytesWritten() != DefaultSoftSamplerConfig().RecordBytes {
		t.Errorf("bytes = %d", ss.BytesWritten())
	}
}

func TestSoftSamplerThrottle(t *testing.T) {
	ss := NewSoftSampler(SoftSamplerConfig{ThrottleIntervalCycles: 1000})
	var accepted int
	for tsc := uint64(0); tsc < 10_000; tsc += 100 {
		if oh := ss.Overflow(UopsRetired, Ctx{TSC: tsc}); oh > 0 {
			accepted++
		}
	}
	// 100 overflows 100 cycles apart, 1000-cycle throttle: every 10th
	// accepted.
	if accepted != 10 || len(ss.Samples()) != 10 {
		t.Errorf("accepted = %d (samples %d), want 10", accepted, len(ss.Samples()))
	}
	if ss.Throttled() != 90 {
		t.Errorf("throttled = %d, want 90", ss.Throttled())
	}
	// Disabled throttle (the paper's methodology) accepts everything.
	free := NewSoftSampler(SoftSamplerConfig{})
	for tsc := uint64(0); tsc < 1000; tsc += 10 {
		free.Overflow(UopsRetired, Ctx{TSC: tsc})
	}
	if free.Throttled() != 0 || len(free.Samples()) != 100 {
		t.Error("disabled throttle dropped samples")
	}
}

func TestPEBSSkidShiftsIP(t *testing.T) {
	pb := NewPEBS(PEBSConfig{SkidBytes: 4})
	pb.Overflow(UopsRetired, Ctx{IP: 0x400000})
	if got := pb.Samples()[0].IP; got != 0x400004 {
		t.Errorf("skidded IP = %#x, want 0x400004", got)
	}
	// Default: no skid.
	pb2 := NewPEBS(PEBSConfig{})
	pb2.Overflow(UopsRetired, Ctx{IP: 0x400000})
	if got := pb2.Samples()[0].IP; got != 0x400000 {
		t.Errorf("unskidded IP = %#x", got)
	}
}

// Property: for random event blocks, total counted events are conserved and
// overflows == total/R.
func TestQuickOverflowConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	prop := func(blocks []uint16, rSeed uint16) bool {
		r := uint64(rSeed%5000) + 1
		p := New()
		rec := &fakeRecorder{}
		c := p.MustProgram(UopsRetired, r, rec)
		var total uint64
		for _, b := range blocks {
			n := uint64(b)
			p.Add(UopsRetired, n, Ctx{})
			total += n
		}
		if c.Total() != total {
			return false
		}
		return c.Overflows() == total/r
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}
