// Package sim is the deterministic virtual-time multi-core CPU on which
// every workload in this repository runs.
//
// Why it exists: the paper's measurements need cycle-accurate, per-core
// timestamps ("PEBS supports sampling core-related events for every core
// simultaneously") and per-function instruction pointers at microsecond
// granularity. On a real OS, runtime scheduling blurs that attribution, and
// PEBS itself is privileged Intel hardware. The simulator replaces the
// hardware with a model whose clock, IPC, cache latencies and sampling costs
// are explicit, so the tracer solves the same integration problem the paper
// solves — against a known ground truth.
//
// Execution model: each core runs at most one pinned thread (the modern
// high-throughput architecture of Fig. 5), implemented as one goroutine that
// advances its core's private virtual clock. Cores interact only through
// software queues (package queue), which transport timestamps and keep the
// global timeline causally consistent without a central event loop.
package sim

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/pmu"
	"repro/internal/symtab"
)

// Config describes the simulated machine.
type Config struct {
	// Name labels the machine in reports.
	Name string
	// Cores is the number of CPU cores.
	Cores int
	// FreqHz is the core clock. The default 2.0 GHz matches the Intel Xeon
	// Platinum 8153 the paper's §IV-C3 bandwidth argument is based on, and
	// makes 1 cycle exactly 500 ps.
	FreqHz uint64
	// Cache configures the per-core cache hierarchy.
	Cache cache.Config
	// CyclesPerUopNum/Den express the default execution rate as a rational
	// number of cycles per retired micro-op (1/1 unless a workload
	// overrides it per core; e.g. 2/1 models an IPC-0.5 pointer chaser and
	// 1/3 an IPC-3 vectorized loop).
	CyclesPerUopNum, CyclesPerUopDen uint64
	// BranchMissPenalty is the pipeline-flush cost of a mispredicted
	// branch, in cycles.
	BranchMissPenalty uint64
}

// DefaultConfig returns the Table-II-like evaluation environment: a
// Skylake-generation machine at 2.0 GHz with the default cache hierarchy.
func DefaultConfig() Config {
	return Config{
		Name:              "skylake-sim",
		Cores:             4,
		FreqHz:            2_000_000_000,
		Cache:             cache.DefaultConfig(),
		CyclesPerUopNum:   1,
		CyclesPerUopDen:   1,
		BranchMissPenalty: 15,
	}
}

// ipBytesPerUop is how far the simulated instruction pointer advances per
// retired uop; 4 bytes approximates average x86-64 instruction length.
const ipBytesPerUop = 4

// Machine is one simulated multi-core CPU plus the symbol table of the
// program loaded on it.
type Machine struct {
	cfg   Config
	cores []*Core
	// Syms is the symbol table of the loaded program. Workloads register
	// their functions here before starting.
	Syms *symtab.Table

	wg      sync.WaitGroup
	spawned []bool
	mu      sync.Mutex
}

// New builds a machine. Zero-valued Config fields fall back to defaults.
func New(cfg Config) (*Machine, error) {
	d := DefaultConfig()
	if cfg.Cores == 0 {
		cfg.Cores = d.Cores
	}
	if cfg.Cores < 0 {
		return nil, fmt.Errorf("sim: negative core count %d", cfg.Cores)
	}
	if cfg.FreqHz == 0 {
		cfg.FreqHz = d.FreqHz
	}
	if len(cfg.Cache.Levels) == 0 {
		cfg.Cache = d.Cache
	}
	if cfg.CyclesPerUopNum == 0 {
		cfg.CyclesPerUopNum = d.CyclesPerUopNum
	}
	if cfg.CyclesPerUopDen == 0 {
		cfg.CyclesPerUopDen = d.CyclesPerUopDen
	}
	if cfg.BranchMissPenalty == 0 {
		cfg.BranchMissPenalty = d.BranchMissPenalty
	}
	m := &Machine{cfg: cfg, Syms: symtab.NewTable(), spawned: make([]bool, cfg.Cores)}
	for i := 0; i < cfg.Cores; i++ {
		h, err := cache.New(cfg.Cache)
		if err != nil {
			return nil, err
		}
		m.cores = append(m.cores, &Core{
			id:     i,
			mach:   m,
			cpuNum: cfg.CyclesPerUopNum,
			cpuDen: cfg.CyclesPerUopDen,
			PMU:    pmu.New(),
			Cache:  h,
		})
	}
	return m, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Cores returns the number of cores.
func (m *Machine) Cores() int { return len(m.cores) }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// FreqHz returns the core clock frequency.
func (m *Machine) FreqHz() uint64 { return m.cfg.FreqHz }

// CyclesToMicros converts a cycle count to microseconds.
func (m *Machine) CyclesToMicros(cycles uint64) float64 {
	return float64(cycles) * 1e6 / float64(m.cfg.FreqHz)
}

// Spawn pins body to core id as its single thread and starts it. It returns
// an error if the core is already occupied — one thread per core is the
// architectural invariant of Fig. 5.
func (m *Machine) Spawn(id int, body func(*Core)) error {
	if id < 0 || id >= len(m.cores) {
		return fmt.Errorf("sim: no core %d on %d-core machine", id, len(m.cores))
	}
	m.mu.Lock()
	if m.spawned[id] {
		m.mu.Unlock()
		return fmt.Errorf("sim: core %d already has a pinned thread", id)
	}
	m.spawned[id] = true
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		body(m.cores[id])
	}()
	return nil
}

// MustSpawn is Spawn but panics on error.
func (m *Machine) MustSpawn(id int, body func(*Core)) {
	if err := m.Spawn(id, body); err != nil {
		panic(err)
	}
}

// Release returns every core's cache lines to the pool the next New draws
// from (cache.Hierarchy.Release), so a workload that builds a machine per
// run allocates its cache hierarchy once. Call it after Wait, once nothing
// will run on the machine again: the machine must not be used after it.
// Syms and FreqHz stay readable, and a trace.Set built from the machine
// keeps only those.
func (m *Machine) Release() {
	for _, c := range m.cores {
		c.Cache.Release()
	}
}

// Wait blocks until every spawned thread returns, then releases the cores
// for a subsequent Spawn round (used by parameter sweeps that rerun the same
// pipeline on a fresh set of threads).
func (m *Machine) Wait() {
	m.wg.Wait()
	m.mu.Lock()
	for i := range m.spawned {
		m.spawned[i] = false
	}
	m.mu.Unlock()
}
