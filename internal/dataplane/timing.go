package dataplane

import (
	"repro/internal/lpm"
	"repro/internal/sim"
)

// TimingConfig charges the simulated cost of each chain stage. The stage
// budgets are sized so a full-walk packet retires ~12-15k uops — a
// handful of PEBS samples per packet at the default reset of 1000 — and
// so every organic mechanism (walk width, cache warmth, route depth)
// moves its stage by well over the detector's minimum relative shift.
type TimingConfig struct {
	// Parse: fixed header-walk setup plus per-wire-byte cost.
	ParseBaseUops    uint64
	ParsePerByteUops uint64

	// Flow cache: probe arithmetic plus one load per way touched, at the
	// set's synthetic line; insert cost on the install path.
	FlowProbeUops  uint64
	FlowInsertUops uint64
	FlowBase       uint64

	// ACL: per-trie setup, per-key-byte arithmetic with one load per
	// byte (deeper walks touch more lines), and per-surviving-atom scan.
	ACLPerTrieUops     uint64
	ACLPerByteUops     uint64
	ACLPerSurvivorUops uint64
	TrieBase           uint64
	TrieStride         uint64

	// Route: the per-family LPM stage costs.
	RouteV4 lpm.TimingConfig
	RouteV6 lpm.TimingConfig6

	// Emit: fixed cost plus a store into the TX ring.
	EmitUops uint64
	EmitBase uint64
}

// DefaultTimingConfig returns the calibrated stage budgets.
func DefaultTimingConfig() TimingConfig {
	return TimingConfig{
		ParseBaseUops:    200,
		ParsePerByteUops: 40,

		FlowProbeUops:  1600,
		FlowInsertUops: 400,
		FlowBase:       0xd000_0000,

		ACLPerTrieUops:     300,
		ACLPerByteUops:     160,
		ACLPerSurvivorUops: 40,
		TrieBase:           0xe000_0000,
		TrieStride:         1 << 16,

		RouteV4: lpm.TimingConfig{
			BaseUops:  1800,
			ExtUops:   900,
			TableBase: 0xa000_0000,
			PageBase:  0xb000_0000,
		},
		RouteV6: lpm.TimingConfig6{
			BaseUops:   1200,
			LevelUops:  650,
			NodeBase:   0xc000_0000,
			NodeStride: 4096,
		},

		EmitUops: 2200,
		EmitBase: 0xf000_0000,
	}
}

// aclMeter charges the ACL walk's cost to core: per trie a setup charge,
// then per examined key byte arithmetic plus a load into that trie's table
// line for the byte position, then a per-survivor scan charge. The cost
// therefore tracks the walk shape — wider rule sets mean more tries and
// more surviving atoms, early termination means fewer bytes — which is
// the organic acl0 fluctuation.
type aclMeter struct {
	core *sim.Core
	tc   *TimingConfig
}

func (m *aclMeter) Trie(int) { m.core.Exec(m.tc.ACLPerTrieUops) }

func (m *aclMeter) Walked(i, bytes int) {
	base := m.tc.TrieBase + uint64(i)*m.tc.TrieStride
	for pos := 0; pos < bytes; pos++ {
		m.core.Exec(m.tc.ACLPerByteUops)
		m.core.Load(base + uint64(pos)*64)
	}
}

func (m *aclMeter) Survivor() { m.core.Exec(m.tc.ACLPerSurvivorUops) }
