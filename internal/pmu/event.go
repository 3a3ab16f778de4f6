// Package pmu models the per-core performance monitoring unit used by the
// hybrid tracer: hardware event counters, Intel PEBS (Precise Event Based
// Sampling) and, for comparison, the software sampling path used by
// perf-style tools.
//
// Paper correspondence (§III-B): PEBS is configured with a pair of
// (hardware event, reset value R). The core counts occurrences of the event
// in a designated counter register initialized to -R; on overflow the CPU
// itself stores the general-purpose registers, the instruction pointer and
// the hardware timestamp into the PEBS buffer at a cost of ~250 ns per
// sample, and raises an interrupt only when the buffer becomes full. The
// software path instead interrupts the OS on every overflow, which costs
// ~10 µs per sample and puts a floor on the achievable sample interval
// (Fig. 4).
package pmu

// Event identifies a hardware event a counter can be programmed to count.
// The set mirrors the events the paper relies on: UOPS_RETIRED.ALL drives
// all headline experiments, and §V-D extends the method to cache misses,
// branch mispredictions and load counts.
type Event uint8

const (
	// UopsRetired counts retired micro-operations (UOPS_RETIRED.ALL).
	UopsRetired Event = iota
	// LoadsRetired counts retired load instructions.
	LoadsRetired
	// StoresRetired counts retired store instructions.
	StoresRetired
	// BranchesRetired counts retired branch instructions.
	BranchesRetired
	// BranchMispredicts counts mispredicted branches.
	BranchMispredicts
	// L1DMisses counts L1 data-cache misses.
	L1DMisses
	// L2Misses counts L2 cache misses.
	L2Misses
	// LLCMisses counts last-level-cache misses.
	LLCMisses

	// NumEvents is the number of defined events.
	NumEvents
)

var eventNames = [NumEvents]string{
	UopsRetired:       "UOPS_RETIRED.ALL",
	LoadsRetired:      "MEM_INST_RETIRED.ALL_LOADS",
	StoresRetired:     "MEM_INST_RETIRED.ALL_STORES",
	BranchesRetired:   "BR_INST_RETIRED.ALL_BRANCHES",
	BranchMispredicts: "BR_MISP_RETIRED.ALL_BRANCHES",
	L1DMisses:         "L1D.REPLACEMENT",
	L2Misses:          "L2_RQSTS.MISS",
	LLCMisses:         "LONGEST_LAT_CACHE.MISS",
}

// String returns the Intel SDM-style mnemonic for the event.
func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return "EVENT_UNKNOWN"
}

// NumRegs is the number of general-purpose registers captured in a sample.
// PEBS stores the full x86-64 GP register file; index 13 corresponds to r13,
// the register the §V-A timer-switching extension reserves for data-item IDs.
const NumRegs = 16

// R13 is the register index used by the timer-switching extension (§V-A).
const R13 = 13

// Sample is one record captured at counter overflow. This is the pre-defined
// (and, because PEBS is hardware, non-extensible) set of fields the paper
// works with: the hardware timestamp, the instruction pointer, and the
// general-purpose registers. Note the deliberate absence of any data-item
// identifier — recovering it is the paper's core technical problem.
//
// The register file lives out of line: a Sample is 32 bytes, and only the
// samples whose registers are not all zero carry a 128-byte block.
type Sample struct {
	// TSC is the core's timestamp counter value, in cycles.
	TSC uint64
	// IP is the sampled instruction pointer.
	IP uint64
	// Core is the core the sample was taken on.
	Core int32
	// Event is the event whose counter overflowed.
	Event Event
	// Regs is the general-purpose register file at the sample point, or
	// nil when every register was zero (CaptureRegs). A block is shared
	// by every copy of the Sample and never written once made; Reg reads
	// it with nil as zero.
	Regs *[NumRegs]uint64
}

// Reg returns register r at the sample point; a nil Regs reads as zero.
func (s *Sample) Reg(r int) uint64 {
	if s.Regs == nil {
		return 0
	}
	return s.Regs[r]
}

// RegsZero reports whether rf holds no non-zero register: nil, or a block
// of zeros. Encoders set a record's register flag only when it is false.
func RegsZero(rf *[NumRegs]uint64) bool {
	return rf == nil || *rf == [NumRegs]uint64{}
}

// CaptureRegs returns the block a Sample taken from the live register file
// rf carries: a copy, since the program goes on writing rf, or nil when
// RegsZero(rf).
func CaptureRegs(rf *[NumRegs]uint64) *[NumRegs]uint64 {
	if RegsZero(rf) {
		return nil
	}
	c := *rf
	return &c
}

// Ctx carries the processor state handed to a recorder at overflow time.
type Ctx struct {
	TSC  uint64
	IP   uint64
	Core int32
	// Regs points at the live register file; it may be nil when the
	// simulated program does not use registers, in which case the sample's
	// register image is all zeroes.
	Regs *[NumRegs]uint64
}

// Recorder consumes counter overflows. PEBS and SoftSampler both implement
// it; the returned overhead (in cycles) is charged to the core that
// triggered the overflow, which is how sampling cost perturbs the target —
// the very effect Figs. 4 and 10 quantify.
type Recorder interface {
	// Overflow records one sample and returns the cycles of overhead the
	// sampled core pays for it.
	Overflow(ev Event, ctx Ctx) uint64
	// Samples returns everything recorded so far, draining internal
	// buffers first.
	Samples() []Sample
}
