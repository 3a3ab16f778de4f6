package sim

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/pmu"
	"repro/internal/symtab"
)

func testMachine(t *testing.T) *Machine {
	t.Helper()
	return MustNew(Config{Cores: 2})
}

func TestDefaultsApplied(t *testing.T) {
	m := MustNew(Config{})
	d := DefaultConfig()
	if m.Cores() != d.Cores || m.FreqHz() != d.FreqHz {
		t.Errorf("defaults not applied: %+v", m.Config())
	}
	if m.Config().BranchMissPenalty != d.BranchMissPenalty {
		t.Error("branch penalty default missing")
	}
}

func TestNewRejectsNegativeCores(t *testing.T) {
	if _, err := New(Config{Cores: -1}); err == nil {
		t.Error("accepted negative core count")
	}
}

func TestTimeConversionAt2GHz(t *testing.T) {
	m := MustNew(Config{Cores: 1})
	if got := m.CyclesToMicros(2000); got != 1 {
		t.Errorf("2000 cycles = %v us, want 1", got)
	}
}

func TestExecAdvancesClockAtRate(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	c.Exec(1000)
	if c.Now() != 1000 {
		t.Errorf("1000 uops at 1/1 = %d cycles, want 1000", c.Now())
	}
	c.SetRate(2, 1) // IPC 0.5
	c.Exec(100)
	if c.Now() != 1200 {
		t.Errorf("after 100 uops at 2/1 clock = %d, want 1200", c.Now())
	}
	c.SetRate(1, 4) // IPC 4
	c.Exec(100)
	if c.Now() != 1225 {
		t.Errorf("after 100 uops at 1/4 clock = %d, want 1225", c.Now())
	}
	if c.Retired() != 1200 {
		t.Errorf("retired = %d, want 1200", c.Retired())
	}
}

func TestFractionalRateCarriesRemainder(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	c.SetRate(1, 3) // 3 uops per cycle
	for i := 0; i < 10; i++ {
		c.Exec(1) // 10 uops one at a time
	}
	// 10 uops / 3 per cycle = 3 cycles with carry 1.
	if c.Now() != 3 {
		t.Errorf("clock = %d, want 3 (no drift from fractional rate)", c.Now())
	}
	c.Exec(2)
	if c.Now() != 4 {
		t.Errorf("clock = %d, want 4", c.Now())
	}
}

func TestSetRatePanicsOnZero(t *testing.T) {
	m := testMachine(t)
	defer func() {
		if recover() == nil {
			t.Error("SetRate(0,1) did not panic")
		}
	}()
	m.Core(0).SetRate(0, 1)
}

// depth and curFn read c's simulated call stack.
func depth(c *Core) int { return len(c.stack) }

func curFn(c *Core) *symtab.Fn {
	if len(c.stack) == 0 {
		return nil
	}
	return c.stack[len(c.stack)-1].fn
}

func TestCallSetsIPWithinFunction(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	fn := m.Syms.MustRegister("f", 4096)
	if c.IP() != 0 || curFn(c) != nil {
		t.Error("idle core should have no IP")
	}
	c.Call(fn, func() {
		if curFn(c) != fn {
			t.Error("current function wrong inside Call")
		}
		for i := 0; i < 100; i++ {
			c.Exec(10)
			if !fn.Contains(c.IP()) {
				t.Fatalf("IP %#x escaped %v", c.IP(), fn)
			}
		}
	})
	if depth(c) != 0 {
		t.Error("stack not popped")
	}
}

func TestNestedCallsAttributeToInnermost(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	outer := m.Syms.MustRegister("outer", 1024)
	inner := m.Syms.MustRegister("inner", 1024)
	c.Call(outer, func() {
		c.Exec(5)
		c.Call(inner, func() {
			if curFn(c) != inner || !inner.Contains(c.IP()) {
				t.Error("inner frame not active")
			}
		})
		if curFn(c) != outer {
			t.Error("outer frame not restored")
		}
	})
}

func TestCallNilPanics(t *testing.T) {
	m := testMachine(t)
	defer func() {
		if recover() == nil {
			t.Error("Call(nil) did not panic")
		}
	}()
	m.Core(0).Call(nil, func() {})
}

func TestExecSplitsAtOverflowBoundary(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	fn := m.Syms.MustRegister("f", 1<<20)
	pb := pmu.NewPEBS(pmu.PEBSConfig{SampleCostCycles: 500})
	c.PMU.MustProgram(pmu.UopsRetired, 1000, pb)
	c.Call(fn, func() { c.Exec(3500) })
	samples := pb.Samples()
	if len(samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(samples))
	}
	// Overflows at uop 1000, 2000, 3000. Sample i is taken at clock
	// 1000*(i+1) + 500*i (each prior sample added 500 cycles of overhead).
	for i, s := range samples {
		want := uint64(1000*(i+1)) + uint64(500*i)
		if s.TSC != want {
			t.Errorf("sample %d TSC = %d, want %d", i, s.TSC, want)
		}
		if !fn.Contains(s.IP) {
			t.Errorf("sample %d IP %#x outside %v", i, s.IP, fn)
		}
	}
	// Total time: 3500 uops + 3 samples * 500 cycles.
	if want := uint64(3500 + 1500); c.Now() != want {
		t.Errorf("clock = %d, want %d", c.Now(), want)
	}
}

func TestSamplingOverheadDoesNotRetireUops(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	pb := pmu.NewPEBS(pmu.PEBSConfig{SampleCostCycles: 500})
	c.PMU.MustProgram(pmu.UopsRetired, 100, pb)
	c.Exec(1000)
	if c.Retired() != 1000 {
		t.Errorf("retired = %d, want exactly 1000", c.Retired())
	}
	if c.Now() <= 1000 {
		t.Error("sampling overhead missing from clock")
	}
}

func TestLoadFiresCacheMissEvents(t *testing.T) {
	m := MustNew(Config{Cores: 1, Cache: cache.Config{
		Levels: []cache.LevelConfig{
			{Name: "L1", Sets: 2, Ways: 2, LineBytes: 64, HitLatency: 4},
			{Name: "L2", Sets: 4, Ways: 2, LineBytes: 64, HitLatency: 14},
			{Name: "LLC", Sets: 8, Ways: 2, LineBytes: 64, HitLatency: 44},
		},
		MemLatency: 240,
	}})
	c := m.Core(0)
	l1rec := pmu.NewPEBS(pmu.PEBSConfig{})
	llcrec := pmu.NewPEBS(pmu.PEBSConfig{})
	loadrec := pmu.NewPEBS(pmu.PEBSConfig{})
	c.PMU.MustProgram(pmu.L1DMisses, 1, l1rec)
	c.PMU.MustProgram(pmu.LLCMisses, 1, llcrec)
	c.PMU.MustProgram(pmu.LoadsRetired, 1, loadrec)
	c.Load(0x1000) // cold: misses all three levels
	c.Load(0x1000) // warm: hits L1
	if got := len(l1rec.Samples()); got != 1 {
		t.Errorf("L1 miss samples = %d, want 1", got)
	}
	if got := len(llcrec.Samples()); got != 1 {
		t.Errorf("LLC miss samples = %d, want 1", got)
	}
	if got := len(loadrec.Samples()); got != 2 {
		t.Errorf("load samples = %d, want 2", got)
	}
}

func TestLoadWarmVsColdLatency(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	c.Load(0x2000)
	cold := c.Now()
	c.Load(0x2000)
	warm := c.Now() - cold
	if warm >= cold {
		t.Errorf("warm load (%d cy) not faster than cold (%d cy)", warm, cold)
	}
	// Default config: warm = 1 uop + 4 cycles L1 = 5.
	if warm != 5 {
		t.Errorf("warm load = %d cycles, want 5", warm)
	}
}

func TestStoreAllocates(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	c.Store(0x3000)
	before := c.Now()
	c.Load(0x3000)
	if c.Now()-before != 5 {
		t.Errorf("load after store took %d cycles, want 5 (write-allocate)", c.Now()-before)
	}
}

func TestBranchPenalty(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	c.Branch(false)
	predicted := c.Now()
	c.Branch(true)
	mispredicted := c.Now() - predicted
	if want := predicted + m.Config().BranchMissPenalty; mispredicted != want {
		t.Errorf("mispredict cost = %d, want %d", mispredicted, want)
	}
}

func TestBranchFiresMispredictEvent(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	rec := pmu.NewPEBS(pmu.PEBSConfig{})
	c.PMU.MustProgram(pmu.BranchMispredicts, 1, rec)
	c.Branch(false)
	c.Branch(true)
	if got := len(rec.Samples()); got != 1 {
		t.Errorf("mispredict samples = %d, want 1", got)
	}
}

func TestAdvanceToNeverGoesBack(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	c.Exec(100)
	c.AdvanceTo(50)
	if c.Now() != 100 {
		t.Errorf("AdvanceTo moved clock backward to %d", c.Now())
	}
	c.AdvanceTo(200)
	if c.Now() != 200 {
		t.Errorf("AdvanceTo(200) = %d", c.Now())
	}
	c.Sleep(10)
	if c.Now() != 210 {
		t.Errorf("Sleep(10) = %d", c.Now())
	}
}

func TestRegisters(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	rec := pmu.NewPEBS(pmu.PEBSConfig{})
	c.PMU.MustProgram(pmu.UopsRetired, 10, rec)
	// Samples carry no register file until a register holds a non-zero
	// value, and none again once every register is back at zero.
	c.Exec(10)
	c.SetReg(pmu.R13, 0)
	c.Exec(10)
	c.SetReg(pmu.R13, 99)
	if c.Reg(pmu.R13) != 99 {
		t.Error("register write lost")
	}
	c.Exec(10)
	c.SetReg(pmu.R13, 0)
	c.Exec(10)
	s := rec.Samples()
	if len(s) != 4 {
		t.Fatalf("got %d samples, want 4", len(s))
	}
	for i, want := range []bool{false, false, true, false} {
		if (s[i].Regs != nil) != want {
			t.Errorf("sample %d: Regs %v, want a register file: %v", i, s[i].Regs, want)
		}
	}
	if s[2].Reg(pmu.R13) != 99 {
		t.Errorf("sample regs = %+v", s[2].Regs)
	}
}

func TestSpawnOneThreadPerCore(t *testing.T) {
	m := testMachine(t)
	done := make(chan struct{})
	m.MustSpawn(0, func(c *Core) { <-done })
	if err := m.Spawn(0, func(c *Core) {}); err == nil {
		t.Error("second thread pinned to busy core")
	}
	if err := m.Spawn(7, func(c *Core) {}); err == nil {
		t.Error("spawn on nonexistent core accepted")
	}
	close(done)
	m.Wait()
	// After Wait the core frees up for sweep-style reruns.
	if err := m.Spawn(0, func(c *Core) {}); err != nil {
		t.Errorf("respawn after Wait failed: %v", err)
	}
	m.Wait()
}

func TestMustSpawnPanics(t *testing.T) {
	m := testMachine(t)
	defer func() {
		if recover() == nil {
			t.Error("MustSpawn on bad core did not panic")
		}
	}()
	m.MustSpawn(-1, func(c *Core) {})
}

func TestExecZeroIsNoop(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	c.PMU.MustProgram(pmu.UopsRetired, 100, pmu.NewPEBS(pmu.PEBSConfig{}))
	c.Exec(0)
	if c.Now() != 0 || c.Retired() != 0 {
		t.Errorf("Exec(0) advanced state: clock=%d retired=%d", c.Now(), c.Retired())
	}
}

func TestDeepCallNesting(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	fns := make([]*symtab.Fn, 64)
	for i := range fns {
		fns[i] = m.Syms.MustRegister(fmt.Sprintf("level_%02d", i), 256)
	}
	var descend func(d int)
	descend = func(d int) {
		if d == len(fns) {
			c.Exec(10)
			return
		}
		c.Call(fns[d], func() {
			if depth(c) != d+1 {
				t.Fatalf("depth = %d at level %d", depth(c), d)
			}
			if !fns[d].Contains(c.IP()) {
				t.Fatalf("IP outside frame at level %d", d)
			}
			descend(d + 1)
		})
	}
	descend(0)
	if depth(c) != 0 {
		t.Error("stack not fully unwound")
	}
}

func TestLoadWithoutPMU(t *testing.T) {
	m := testMachine(t)
	c := m.Core(0)
	c.Load(0x1234) // no counters programmed: must not panic, still costs
	if c.Now() == 0 {
		t.Error("load cost missing without PMU")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, int) {
		m := MustNew(Config{Cores: 1})
		c := m.Core(0)
		fn := m.Syms.MustRegister("f", 4096)
		pb := pmu.NewPEBS(pmu.PEBSConfig{})
		c.PMU.MustProgram(pmu.UopsRetired, 777, pb)
		c.Call(fn, func() {
			for i := 0; i < 100; i++ {
				c.Exec(123)
				c.Load(uint64(i) * 64)
			}
		})
		return c.Now(), len(pb.Samples())
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 != c2 || s1 != s2 {
		t.Errorf("nondeterministic: run1=(%d,%d) run2=(%d,%d)", c1, s1, c2, s2)
	}
}
