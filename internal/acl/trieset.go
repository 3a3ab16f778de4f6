package acl

import "fmt"

// BuildConfig controls how a rule set's atoms are divided across tries.
type BuildConfig struct {
	// MaxTries caps the number of tries. Vanilla DPDK "stores ACL rules
	// into at most 8 trie structures no matter how many rules exist"; the
	// paper enlarges this limit to reach 247.
	MaxTries int
	// MaxAtomsPerTrie is the per-trie capacity that forces splitting (the
	// memory-consumption limit of design (2)). When the rules need more
	// than MaxTries tries at this capacity, tries grow beyond it instead,
	// like vanilla DPDK growing its 8 tries.
	MaxAtomsPerTrie int
}

// DefaultBuildConfig matches vanilla DPDK's behaviour.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{MaxTries: 8, MaxAtomsPerTrie: 2048}
}

// TrieSet is a rule set compiled into KeyTries: the multi-trie ACL of
// §IV-C1 that both the 12-byte Classifier and the dataplane's 40-byte
// matcher are. It is immutable after BuildTrieSet and safe for concurrent
// classification, each caller with its own scratch.
type TrieSet struct {
	tries []*KeyTrie
	prio  []int32 // prio[ref] is the priority of the rule atoms name by Ref
	words int     // the widest trie's bitset, sizing walk scratch
	atoms int
}

// BuildTrieSet compiles atoms over keyLen-byte keys. prio[ref] is the
// priority of rule ref; every atom's Ref must index it. Atoms are chunked
// across tries in input order, as DPDK's builder fills one trie and then
// opens the next: each trie takes MaxAtomsPerTrie atoms, or, when that
// would need more than MaxTries tries, ceil(atoms/MaxTries). Zero fields
// of cfg take DefaultBuildConfig's.
func BuildTrieSet(keyLen int, atoms []KeyAtom, prio []int32, cfg BuildConfig) (*TrieSet, error) {
	d := DefaultBuildConfig()
	if cfg.MaxTries == 0 {
		cfg.MaxTries = d.MaxTries
	}
	if cfg.MaxAtomsPerTrie == 0 {
		cfg.MaxAtomsPerTrie = d.MaxAtomsPerTrie
	}
	if cfg.MaxTries < 1 || cfg.MaxAtomsPerTrie < 1 {
		return nil, fmt.Errorf("acl: invalid build config %+v", cfg)
	}
	if len(atoms) == 0 {
		return nil, fmt.Errorf("acl: empty atom set")
	}
	per := max(cfg.MaxAtomsPerTrie, (len(atoms)+cfg.MaxTries-1)/cfg.MaxTries)
	s := &TrieSet{prio: prio, atoms: len(atoms)}
	for off := 0; off < len(atoms); off += per {
		t, err := BuildKeyTrie(keyLen, atoms[off:min(off+per, len(atoms))])
		if err != nil {
			return nil, err
		}
		s.tries = append(s.tries, t)
		s.words = max(s.words, t.Words())
	}
	return s, nil
}

// Tries returns the number of tries the atoms were chunked into.
func (s *TrieSet) Tries() int { return len(s.tries) }

// Atoms returns the number of compiled atoms across all tries.
func (s *TrieSet) Atoms() int { return s.atoms }

// Scratch allocates a walk scratch buffer sized for this set. Each
// concurrent caller of Classify needs its own.
func (s *TrieSet) Scratch() []uint64 { return make([]uint64, s.words) }

// Meter charges a classification's cost as the walk goes, so a timing
// model prices the walk's shape without walking itself. Classify calls
// Trie(i) before trie i is walked, Walked(i, n) after it examined n key
// bytes, and Survivor once for every atom that survived it.
type Meter interface {
	Trie(i int)
	Walked(i, bytes int)
	Survivor()
}

// WalkStats describes one classification's work.
type WalkStats struct {
	Tries     int // tries walked
	Bytes     int // key bytes examined across them
	Survivors int // atoms that survived their trie's walk
}

// Classify walks key through every trie and returns the best rule among
// the surviving atoms under DPDK's resolution order: higher priority
// wins, ties keep the lowest rule index. meter (nil: untimed) is charged
// as the walk goes. scratch must come from Scratch (or be as long).
func (s *TrieSet) Classify(key []byte, scratch []uint64, meter Meter) (int, bool, WalkStats) {
	best := -1
	var st WalkStats
	for i, t := range s.tries {
		if meter != nil {
			meter.Trie(i)
		}
		n, survivors := t.Walk(key, scratch)
		st.Tries++
		st.Bytes += n
		if meter != nil {
			meter.Walked(i, n)
		}
		t.ForEach(survivors, func(ref int) {
			st.Survivors++
			if meter != nil {
				meter.Survivor()
			}
			if best == -1 || s.prio[ref] > s.prio[best] || (s.prio[ref] == s.prio[best] && ref < best) {
				best = ref
			}
		})
	}
	return best, best >= 0, st
}
