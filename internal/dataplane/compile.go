package dataplane

import (
	"fmt"

	"repro/internal/acl"
)

// Matcher is the compiled form of a rule set: the full 5-tuple + VLAN +
// family policy lowered onto an acl.TrieSet over the 40-byte packet key.
// Immutable after Compile; concurrent Classify calls need per-caller
// scratch (see Scratch).
type Matcher struct {
	set *acl.TrieSet
}

// Compile lowers rules into tries chunked by cfg (see acl.BuildTrieSet).
// Every rule contributes at least one atom; 16-bit range fields (VLAN,
// ports) decompose into ≤3 byte-wise segments each, so a rule expands
// into at most 27 atoms.
func Compile(rules []Rule, cfg acl.BuildConfig) (*Matcher, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("dataplane: empty rule set")
	}
	var atoms []acl.KeyAtom
	prio := make([]int32, len(rules))
	for i, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("dataplane: rule %d: %w", i, err)
		}
		atoms = append(atoms, expandDPRule(i, r)...)
		prio[i] = r.Priority
	}
	set, err := acl.BuildTrieSet(KeyLen, atoms, prio, cfg)
	if err != nil {
		return nil, fmt.Errorf("dataplane: compile: %w", err)
	}
	return &Matcher{set: set}, nil
}

// expandDPRule lowers one rule into byte-decomposable atoms, all sharing
// Ref = idx, in deterministic segment order (VLAN outermost, then source
// and destination port).
func expandDPRule(idx int, r Rule) []acl.KeyAtom {
	fam := byte(4)
	if r.V6 {
		fam = 6
	}
	base := make([]acl.ByteRange, KeyLen)
	base[keyOffFamily] = acl.ByteRange{Lo: fam, Hi: fam}
	base[keyOffProto] = acl.ByteRange{Lo: r.ProtoLo, Hi: r.ProtoHi}
	acl.PrefixRanges(base[keyOffSrc:keyOffDst], r.SrcAddr[:], effectiveBits(r.V6, r.SrcBits))
	acl.PrefixRanges(base[keyOffDst:keyOffSPort], r.DstAddr[:], effectiveBits(r.V6, r.DstBits))
	return acl.ExpandAtoms(idx, base,
		acl.Field16{Off: keyOffVLAN, Lo: r.VLANLo, Hi: r.VLANHi},
		acl.Field16{Off: keyOffSPort, Lo: r.SrcPortLo, Hi: r.SrcPortHi},
		acl.Field16{Off: keyOffDPort, Lo: r.DstPortLo, Hi: r.DstPortHi})
}

// Scratch allocates a walk scratch buffer sized for this matcher. Each
// concurrent classifier goroutine needs its own.
func (m *Matcher) Scratch() []uint64 { return m.set.Scratch() }

// Tries returns the compiled trie count.
func (m *Matcher) Tries() int { return m.set.Tries() }

// Atoms returns the number of compiled atoms across all tries.
func (m *Matcher) Atoms() int { return m.set.Atoms() }

// Classify returns the best matching rule's index. scratch must come from
// m.Scratch() (or be at least as long).
func (m *Matcher) Classify(p *Packet, scratch []uint64) (int, bool) {
	key := p.Key()
	idx, ok, _ := m.set.Classify(key[:], scratch, nil)
	return idx, ok
}
