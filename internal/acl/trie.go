package acl

import (
	"fmt"
)

// The classifier compiles rules into multiple trie structures (§IV-C1):
//
//  1. rules are stored in tries "to efficiently treat many ACL rules";
//  2. rules are divided across multiple tries because one trie over all
//     rules consumes too much memory (vanilla DPDK caps the count at 8;
//     the paper patches that limit and ends up with 247 tries);
//  3. the trie key is the 12-byte (src addr, dst addr, ports) tuple, and a
//     trie stops examining a key as soon as no stored rule can match the
//     bytes seen so far.
//
// Representation: each rule is expanded into atoms whose per-byte
// predicate is a contiguous byte range (CIDR masks and port-range segments
// both reduce to this), and the atoms compile into the width-generic
// TrieSet of trieset.go at the paper's 12-byte key. Walking a key is one
// AND per byte — constant work per byte like a real trie node transition —
// and the walk terminates at the first empty set, which reproduces DPDK's
// early termination and with it the packet-type latency spread of Table IV.

// expandRule converts a rule into atoms. Address masks decompose directly
// into per-byte ranges; a 16-bit port range decomposes into at most three
// byte-decomposable segments, so a rule yields at most 3×3 = 9 atoms.
// Exact-port rules (the whole Table III set) yield exactly one.
func expandRule(ref int, r Rule) []KeyAtom {
	addrs := Packet{SrcAddr: r.SrcAddr, DstAddr: r.DstAddr}.Key()
	base := make([]ByteRange, KeyBytes)
	PrefixRanges(base[0:4], addrs[0:4], r.SrcMaskBits)
	PrefixRanges(base[4:8], addrs[4:8], r.DstMaskBits)
	return ExpandAtoms(ref, base,
		Field16{Off: 8, Lo: r.SrcPortLo, Hi: r.SrcPortHi},
		Field16{Off: 10, Lo: r.DstPortLo, Hi: r.DstPortHi})
}

// Classifier is a compiled rule set. It is immutable after Build and safe
// for concurrent classification from multiple cores.
type Classifier struct {
	rules []Rule
	set   *TrieSet
}

// Build compiles rules, chunked across tries by cfg (see BuildTrieSet).
func Build(rules []Rule, cfg BuildConfig) (*Classifier, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("acl: empty rule set")
	}
	var atoms []KeyAtom
	prio := make([]int32, len(rules))
	for i, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("rule %d: %w", i, err)
		}
		atoms = append(atoms, expandRule(i, r)...)
		prio[i] = r.Priority
	}
	set, err := BuildTrieSet(KeyBytes, atoms, prio, cfg)
	if err != nil {
		return nil, err
	}
	return &Classifier{rules: rules, set: set}, nil
}

// MustBuild is Build but panics on error.
func MustBuild(rules []Rule, cfg BuildConfig) *Classifier {
	c, err := Build(rules, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// NumTries returns how many tries the rules compiled into.
func (c *Classifier) NumTries() int { return c.set.Tries() }

// Rules returns the compiled rules (shared slice; do not modify).
func (c *Classifier) Rules() []Rule { return c.rules }

// Classify returns the index of the best matching rule. Functionally it
// must agree with LinearClassify; its cost profile is what differs.
func (c *Classifier) Classify(p Packet) (int, bool) {
	idx, ok, _ := c.classify(p, nil)
	return idx, ok
}

// classify walks p's key through the trie set, charging meter.
func (c *Classifier) classify(p Packet, meter Meter) (int, bool, WalkStats) {
	key := p.Key()
	return c.set.Classify(key[:], c.set.Scratch(), meter)
}
