package lpm

import (
	"repro/internal/sim"
)

// TimingConfig charges the simulated cost of one lookup to a core.
type TimingConfig struct {
	// BaseUops is the arithmetic around the first-level probe.
	BaseUops uint64
	// ExtUops is the extra arithmetic for the second-level probe.
	ExtUops uint64
	// TableBase/PageBase are the synthetic addresses of the two tables;
	// cache behaviour (the hot-prefix working set) emerges from the
	// simulator's hierarchy.
	TableBase uint64
	PageBase  uint64
}

// DefaultTimingConfig returns costs shaped like DPDK's rte_lpm_lookup: a
// handful of instructions per probe, dominated by the memory accesses.
func DefaultTimingConfig() TimingConfig {
	return TimingConfig{
		BaseUops:  24,
		ExtUops:   14,
		TableBase: 0xa000_0000,
		PageBase:  0xb000_0000,
	}
}

// Meter charges Table lookups to one core under a TimingConfig: one load
// into the first-level table always, plus one load into the overflow page
// when the covering route is deeper than the first level. The two-probe
// case is the per-packet fluctuation this structure exhibits. A nil *Meter
// charges nothing. Build one per core, outside its packet loop.
type Meter struct {
	core *sim.Core
	tc   TimingConfig
}

// NewMeter returns the meter that charges core under tc.
func NewMeter(core *sim.Core, tc TimingConfig) *Meter {
	return &Meter{core: core, tc: tc}
}

// first charges the first-level probe of slot idx.
func (m *Meter) first(idx uint32) {
	if m != nil {
		m.core.Exec(m.tc.BaseUops)
		m.core.Load(m.tc.TableBase + uint64(idx)*4)
	}
}

// second charges the overflow-page probe of entry low in page, whose
// pages span 1<<shift entries.
func (m *Meter) second(page, low uint32, shift uint) {
	if m != nil {
		m.core.Exec(m.tc.ExtUops)
		m.core.Load(m.tc.PageBase + (uint64(page)<<shift)*4 + uint64(low)*4)
	}
}
