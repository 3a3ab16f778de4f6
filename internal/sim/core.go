package sim

import (
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/pmu"
	"repro/internal/symtab"
)

// Core is one simulated CPU core. Exactly one goroutine may drive a Core —
// the pinned worker thread of the Fig. 5 architecture — so none of its
// methods take locks. Its virtual clock counts cycles since machine start;
// the timestamp counter (TSC) the tracer consumes is exactly this clock.
type Core struct {
	id   int
	mach *Machine

	clock   uint64
	retired uint64 // total uops retired

	// cycles-per-uop as the rational cpuNum/cpuDen, with carry keeping the
	// fractional remainder so long runs accumulate no drift.
	cpuNum, cpuDen uint64
	carry          uint64

	regs [pmu.NumRegs]uint64
	// regsSet turns true at the first non-zero SetReg: until then every
	// sample's register file is nil, so ctx passes none to copy or check.
	regsSet bool
	stack   []frame

	// PMU is the core's performance monitoring unit.
	PMU *pmu.PMU
	// Cache is the core's private cache hierarchy.
	Cache *cache.Hierarchy

	bp *branchPredictor // lazily created by BranchTaken
}

type frame struct {
	fn  *symtab.Fn
	off uint64 // byte offset of the simulated IP inside fn
}

// ID returns the core number.
func (c *Core) ID() int { return c.id }

// Machine returns the owning machine.
func (c *Core) Machine() *Machine { return c.mach }

// Now returns the core's timestamp counter in cycles.
func (c *Core) Now() uint64 { return c.clock }

// NowNanos returns the core clock in nanoseconds.
func (c *Core) NowNanos() float64 { return c.mach.CyclesToNanos(c.clock) }

// Retired returns the total number of uops retired on this core.
func (c *Core) Retired() uint64 { return c.retired }

// SetRate sets the core's execution rate to num cycles per den uops. An
// IPC-2 workload calls SetRate(1, 2); an IPC-0.5 pointer chaser SetRate(2,
// 1). Panics on a zero component (setup-time programming error).
func (c *Core) SetRate(cyclesNum, uopsDen uint64) {
	if cyclesNum == 0 || uopsDen == 0 {
		panic(fmt.Sprintf("sim: invalid rate %d/%d on core %d", cyclesNum, uopsDen, c.id))
	}
	c.cpuNum, c.cpuDen, c.carry = cyclesNum, uopsDen, 0
}

// Rate returns the current cycles-per-uop rational.
func (c *Core) Rate() (cyclesNum, uopsDen uint64) { return c.cpuNum, c.cpuDen }

// SetReg writes general-purpose register i. The §V-A timer-switching
// extension stores the current data-item ID in r13 (pmu.R13) this way.
func (c *Core) SetReg(i int, v uint64) {
	c.regs[i] = v
	c.regsSet = c.regsSet || v != 0
}

// Reg reads general-purpose register i.
func (c *Core) Reg(i int) uint64 { return c.regs[i] }

// IP returns the current simulated instruction pointer: an address inside
// the innermost active function, or 0 when no function is active (samples
// taken there resolve to no symbol, like hits in unsymbolized code).
func (c *Core) IP() uint64 {
	if len(c.stack) == 0 {
		return 0
	}
	f := &c.stack[len(c.stack)-1]
	return f.fn.Base + f.off
}

// CurrentFn returns the innermost active function, or nil.
func (c *Core) CurrentFn() *symtab.Fn {
	if len(c.stack) == 0 {
		return nil
	}
	return c.stack[len(c.stack)-1].fn
}

// Depth returns the current call-stack depth.
func (c *Core) Depth() int { return len(c.stack) }

// Call runs body as the body of fn: while body executes, the simulated IP
// lies inside fn's address range, so PEBS samples taken meanwhile attribute
// to fn. Calls nest like a real call stack.
func (c *Core) Call(fn *symtab.Fn, body func()) {
	if fn == nil {
		panic("sim: Call with nil function")
	}
	c.stack = append(c.stack, frame{fn: fn})
	body()
	c.stack = c.stack[:len(c.stack)-1]
}

func (c *Core) ctx() pmu.Ctx {
	ctx := pmu.Ctx{TSC: c.clock, IP: c.IP(), Core: int32(c.id)}
	if c.regsSet {
		ctx.Regs = &c.regs
	}
	return ctx
}

// advance retires k uops without checking counters: clock and IP move, and
// the fractional cycle remainder carries over.
func (c *Core) advance(k uint64) {
	t := k*c.cpuNum + c.carry
	c.clock += t / c.cpuDen
	c.carry = t % c.cpuDen
	c.retired += k
	if len(c.stack) > 0 {
		f := &c.stack[len(c.stack)-1]
		f.off = (f.off + k*ipBytesPerUop) % f.fn.Size
	}
}

// Exec retires n uops of straight-line computation. The block is split at
// counter-overflow boundaries so each PEBS sample carries the exact cycle
// and IP of its overflow point; sampling overhead stalls the clock without
// retiring uops, which is precisely how sampling perturbs the target.
func (c *Core) Exec(n uint64) {
	for n > 0 {
		step := n
		if d := c.PMU.Distance(pmu.UopsRetired); d < step {
			step = d
		}
		c.advance(step)
		c.clock += c.PMU.Add(pmu.UopsRetired, step, c.ctx())
		n -= step
	}
}

// ExecCycles stalls the core for exactly cy cycles without retiring uops
// (modeling non-instruction time such as I/O waits or injected costs).
func (c *Core) ExecCycles(cy uint64) { c.clock += cy }

// levelMissEvents maps cache level index to the PMU event fired on a miss
// at that level.
var levelMissEvents = [...]pmu.Event{pmu.L1DMisses, pmu.L2Misses, pmu.LLCMisses}

// Load performs one load uop from addr: the load retires (1 uop), the cache
// hierarchy determines the stall, and the appropriate miss events fire.
func (c *Core) Load(addr uint64) {
	c.memAccess(addr, pmu.LoadsRetired)
}

// Store performs one store uop to addr (write-allocate, same cost model).
func (c *Core) Store(addr uint64) {
	c.memAccess(addr, pmu.StoresRetired)
}

func (c *Core) memAccess(addr uint64, retireEv pmu.Event) {
	c.Exec(1) // the memory uop itself retires
	r := c.Cache.Access(addr)
	c.clock += r.Latency
	c.clock += c.PMU.Add(retireEv, 1, c.ctx())
	for lvl := 0; lvl < r.HitLevel && lvl < len(levelMissEvents); lvl++ {
		c.clock += c.PMU.Add(levelMissEvents[lvl], 1, c.ctx())
	}
}

// Branch retires one branch uop; a mispredicted branch additionally pays the
// machine's flush penalty and fires the mispredict event.
func (c *Core) Branch(mispredicted bool) {
	c.Exec(1)
	c.clock += c.PMU.Add(pmu.BranchesRetired, 1, c.ctx())
	if mispredicted {
		c.clock += c.mach.cfg.BranchMissPenalty
		c.clock += c.PMU.Add(pmu.BranchMispredicts, 1, c.ctx())
	}
}

// BranchTaken retires one branch uop with its outcome decided by the
// core's gshare predictor: whether it mispredicts (and pays the flush
// penalty) depends on the branch's own history, so loops predict nearly
// perfectly after warmup while data-dependent branches mispredict in
// proportion to their irregularity. The branch address is the current IP.
// It returns whether the branch mispredicted.
func (c *Core) BranchTaken(taken bool) bool {
	if c.bp == nil {
		c.bp = newBranchPredictor()
	}
	miss := c.bp.predict(c.IP(), taken)
	c.Branch(miss)
	return miss
}

// AdvanceTo moves the clock forward to t if t is in the future (queue waits
// and idle spinning); it never moves the clock backward.
func (c *Core) AdvanceTo(t uint64) {
	if t > c.clock {
		c.clock = t
	}
}

// Sleep advances the clock by cy idle cycles.
func (c *Core) Sleep(cy uint64) { c.clock += cy }

// NextOverflowIn returns the distance, in uops, to the nearest programmed
// UopsRetired overflow, or MaxUint64 when none is programmed. Exposed for
// tests that verify block splitting.
func (c *Core) NextOverflowIn() uint64 {
	d := c.PMU.Distance(pmu.UopsRetired)
	if d == math.MaxUint64 {
		return math.MaxUint64
	}
	return d
}
