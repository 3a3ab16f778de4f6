package acl

import (
	"repro/internal/sim"
)

// TimingConfig charges the simulated cost of one classification to a core.
// The constants are calibrated (see TestTimingCalibration and EXPERIMENTS.md)
// so that, with the Table III rule set in 247 tries on an IPC-3 core at
// 2 GHz, type A packets take ≈ 12–14 µs in rte_acl_classify and type C
// ≈ 6 µs — the fluctuation magnitudes of Fig. 9.
type TimingConfig struct {
	// PerTrieUops is the fixed per-trie setup work (loading the trie
	// descriptor, initializing the walk).
	PerTrieUops uint64
	// PerByteUops is the per-key-byte transition work inside a trie.
	PerByteUops uint64
	// LoadsPerTrie is how many memory loads each trie walk issues against
	// its node tables (cache behaviour emerges from the simulator).
	LoadsPerTrie int
	// TableBase is the synthetic address of the trie tables; tries are
	// laid out at TableStride intervals from it.
	TableBase   uint64
	TableStride uint64
}

// DefaultTimingConfig returns the calibrated defaults.
func DefaultTimingConfig() TimingConfig {
	return TimingConfig{
		PerTrieUops:  17,
		PerByteUops:  28,
		LoadsPerTrie: 1,
		TableBase:    0x4000_0000,
		TableStride:  256,
	}
}

// CoreMeter charges classifications to one core under tc: per trie the
// setup uops and the descriptor loads before the walk, then the examined
// bytes' transitions in one batch. Surviving atoms cost nothing extra.
// Build one per worker core, outside its packet loop.
type CoreMeter struct {
	core *sim.Core
	tc   TimingConfig
}

// NewCoreMeter returns the meter that charges core under tc.
func NewCoreMeter(core *sim.Core, tc TimingConfig) *CoreMeter {
	return &CoreMeter{core: core, tc: tc}
}

// ClassifyTimed classifies p on m's core, charging the walk's cost cycle
// by cycle so PEBS samples taken meanwhile land inside the calling
// function with accurate timestamps. The caller wraps it in
// core.Call(rteAclClassify, ...) to attribute the work, exactly as the
// real rte_acl_classify is the symbol the paper's case study estimates.
func (c *Classifier) ClassifyTimed(p Packet, m *CoreMeter) (int, bool) {
	idx, ok, _ := c.classify(p, m)
	return idx, ok
}

// Trie, Walked and Survivor make a *CoreMeter a Meter.
func (m *CoreMeter) Trie(i int) {
	m.core.Exec(m.tc.PerTrieUops)
	for l := 0; l < m.tc.LoadsPerTrie; l++ {
		m.core.Load(m.tc.TableBase + uint64(i)*m.tc.TableStride + uint64(l)*64)
	}
}

func (m *CoreMeter) Walked(_, bytes int) { m.core.Exec(uint64(bytes) * m.tc.PerByteUops) }

func (*CoreMeter) Survivor() {}
