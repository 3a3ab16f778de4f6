package lpm

import (
	"repro/internal/sim"
)

// TimingConfig6 charges the simulated cost of one v6 lookup to a core.
type TimingConfig6 struct {
	// BaseUops is the arithmetic around the walk setup.
	BaseUops uint64
	// LevelUops is the per-level transition arithmetic.
	LevelUops uint64
	// NodeBase is the synthetic address of the node array; nodes are laid
	// out at NodeStride intervals, so deep walks touch more distinct lines
	// and the hot-route working set emerges from the cache hierarchy.
	NodeBase   uint64
	NodeStride uint64
}

// Meter6 charges Table6 lookups to one core under a TimingConfig6: the
// walk setup, then per trie level walked the transition arithmetic and one
// load into that node's line for the consumed byte. The per-destination
// level count is the fluctuation this structure exhibits — a /128-covered
// destination walks 16 dependent loads where a /32-covered one walks 4. A
// nil *Meter6 charges nothing. Build one per core, outside its packet loop.
type Meter6 struct {
	core *sim.Core
	tc   TimingConfig6
}

// NewMeter6 returns the meter that charges core under tc.
func NewMeter6(core *sim.Core, tc TimingConfig6) *Meter6 {
	return &Meter6{core: core, tc: tc}
}

// start charges the walk setup.
func (m *Meter6) start() {
	if m != nil {
		m.core.Exec(m.tc.BaseUops)
	}
}

// level charges one level's transition through node n on byte b.
func (m *Meter6) level(n *node6, b byte) {
	if m != nil {
		m.core.Exec(m.tc.LevelUops)
		m.core.Load(m.tc.NodeBase + uint64(n.idx)*m.tc.NodeStride + uint64(b)*8)
	}
}
