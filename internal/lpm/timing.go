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

// LookupTimed performs Lookup while charging its cost to core: one load
// into the first-level table always, plus one load into the overflow page
// when the covering route is deeper than the first level. The two-probe
// case is the per-packet fluctuation this structure exhibits.
func (t *Table) LookupTimed(core *sim.Core, addr uint32, tc TimingConfig) (int, bool) {
	shift := 32 - t.firstBits
	core.Exec(tc.BaseUops)
	idx := addr >> shift
	core.Load(tc.TableBase + uint64(idx)*4)
	slot := t.tbl[idx]
	if !slot.extended() {
		return slot.nextHop(), false
	}
	core.Exec(tc.ExtUops)
	low := addr & (1<<shift - 1)
	core.Load(tc.PageBase + (uint64(slot.page())<<shift)*4 + uint64(low)*4)
	return t.pages[slot.page()][low].nextHop(), true
}
