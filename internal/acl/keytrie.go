package acl

import (
	"fmt"
	"math/bits"
	"slices"
)

// This file is the §IV-C1 trie machinery at any key width. Both rule
// languages compile onto it: the paper's 12-byte (src, dst, ports) key in
// trie.go and the dataplane's 40-byte family+proto+VLAN+IPv6 key. A rule
// becomes atoms, conjuncts whose per-byte predicate is one contiguous range
// (PrefixRanges, ExpandAtoms); a KeyTrie holds, per key-byte position, a
// 256-entry table of atom bitsets, so the walk is one AND per byte with
// early termination at the first empty set. TrieSet (trieset.go) chunks a
// rule set's atoms across KeyTries and walks them.

// ByteRange is an inclusive range of byte values, the per-position
// predicate of a byte-decomposable conjunct.
type ByteRange struct {
	Lo, Hi byte
}

// KeyAtom is one byte-decomposable conjunct: it admits a key iff key[i]
// lies in Ranges[i] for every position. Ref is the caller's handle (a rule
// index); several atoms may share a Ref when a rule needed decomposition.
type KeyAtom struct {
	Ref    int
	Ranges []ByteRange
}

// KeyTrie is one compiled trie over fixed-width keys. It is immutable
// after BuildKeyTrie and safe for concurrent walks; the walk's working set
// is caller-provided.
type KeyTrie struct {
	keyLen int
	refs   []int // refs[i] is atom i's caller handle
	// table[pos][v] is the set of atoms whose position-pos range admits v.
	table [][256]bitset
	full  bitset
}

// BuildKeyTrie compiles atoms over keyLen-byte keys.
func BuildKeyTrie(keyLen int, atoms []KeyAtom) (*KeyTrie, error) {
	if keyLen <= 0 {
		return nil, fmt.Errorf("acl: key length %d out of range", keyLen)
	}
	if len(atoms) == 0 {
		return nil, fmt.Errorf("acl: empty atom set")
	}
	t := &KeyTrie{
		keyLen: keyLen,
		refs:   make([]int, len(atoms)),
		table:  make([][256]bitset, keyLen),
		full:   newBitset(len(atoms)),
	}
	for i, a := range atoms {
		if len(a.Ranges) != keyLen {
			return nil, fmt.Errorf("acl: atom %d has %d ranges, key is %d bytes", i, len(a.Ranges), keyLen)
		}
		for p, r := range a.Ranges {
			if r.Lo > r.Hi {
				return nil, fmt.Errorf("acl: atom %d position %d range [%d,%d] inverted", i, p, r.Lo, r.Hi)
			}
		}
		t.refs[i] = a.Ref
		t.full.set(i)
	}
	for pos := 0; pos < keyLen; pos++ {
		for v := 0; v < 256; v++ {
			t.table[pos][v] = newBitset(len(atoms))
		}
		for i, a := range atoms {
			r := a.Ranges[pos]
			for v := int(r.Lo); v <= int(r.Hi); v++ {
				t.table[pos][v].set(i)
			}
		}
	}
	return t, nil
}

// KeyLen returns the key width in bytes.
func (t *KeyTrie) KeyLen() int { return t.keyLen }

// Words returns the bitset width in 64-bit words, for sizing Walk scratch.
func (t *KeyTrie) Words() int { return len(t.full) }

// Atoms returns the number of compiled atoms.
func (t *KeyTrie) Atoms() int { return len(t.refs) }

// Walk consumes key bytes until the candidate set empties, returning the
// number of bytes examined and the surviving atom set (nil when empty).
// key must hold at least KeyLen bytes; scratch at least Words words.
func (t *KeyTrie) Walk(key []byte, scratch []uint64) (bytesExamined int, survivors []uint64) {
	cur := t.full
	s := bitset(scratch[:len(t.full)])
	for pos := 0; pos < t.keyLen; pos++ {
		bytesExamined++
		if !t.table[pos][key[pos]].andInto(s, cur) {
			return bytesExamined, nil
		}
		cur = s
	}
	return bytesExamined, cur
}

// ForEach calls visit with the Ref of every atom present in survivors, in
// ascending atom order (so ascending insertion order, which callers use
// for deterministic tie-breaks).
func (t *KeyTrie) ForEach(survivors []uint64, visit func(ref int)) {
	for w, word := range survivors {
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &= word - 1
			visit(t.refs[w*64+bit])
		}
	}
}

// bitset is a fixed-width atom set.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i/64] |= 1 << (i % 64) }

func (b bitset) andInto(dst, other bitset) bool {
	nonzero := false
	for i := range b {
		dst[i] = b[i] & other[i]
		if dst[i] != 0 {
			nonzero = true
		}
	}
	return nonzero
}

// PrefixRanges writes into dst the per-byte ranges of a CIDR prefix over
// the big-endian address addr: exact bytes above the prefix boundary, a
// partial range at the boundary byte, wildcards below. dst holds
// len(addr) ranges.
func PrefixRanges(dst []ByteRange, addr []byte, bits int) {
	for i, b := range addr {
		rem := bits - 8*i
		switch {
		case rem >= 8:
			dst[i] = ByteRange{Lo: b, Hi: b}
		case rem <= 0:
			dst[i] = ByteRange{Lo: 0, Hi: 0xff}
		default:
			keep := byte(0xff) << (8 - rem)
			dst[i] = ByteRange{Lo: b & keep, Hi: b&keep | ^keep}
		}
	}
}

// Field16 is an inclusive range over the big-endian 16-bit key field at
// byte offset Off (a port or a VLAN ID).
type Field16 struct {
	Off    int
	Lo, Hi uint16
}

// ExpandAtoms lowers one rule into atoms, all with Ref ref: base holds
// the rule's per-byte ranges for every position outside fields, and each
// field's range is decomposed into byte-decomposable segments (at most
// three, see splitRange16) and crossed with the others, the first field
// outermost. base is not modified.
func ExpandAtoms(ref int, base []ByteRange, fields ...Field16) []KeyAtom {
	segs := make([][][2]ByteRange, len(fields))
	n := 1
	for i, f := range fields {
		segs[i] = splitRange16(f.Lo, f.Hi)
		n *= len(segs[i])
	}
	atoms := make([]KeyAtom, n)
	for k := range atoms {
		r := slices.Clone(base)
		for i, rem := len(fields)-1, k; i >= 0; i-- {
			s := segs[i][rem%len(segs[i])]
			rem /= len(segs[i])
			r[fields[i].Off], r[fields[i].Off+1] = s[0], s[1]
		}
		atoms[k] = KeyAtom{Ref: ref, Ranges: r}
	}
	return atoms
}

// splitRange16 decomposes an inclusive 16-bit range [lo,hi] into at most
// three byte-decomposable segments (low edge, middle span, high edge),
// each a pair of independent ranges on the high and the low byte.
func splitRange16(lo, hi uint16) [][2]ByteRange {
	hl, ll := byte(lo>>8), byte(lo)
	hh, lh := byte(hi>>8), byte(hi)
	if hl == hh || (ll == 0x00 && lh == 0xff) {
		// One high-byte value, or a low byte that spans its whole range
		// (e.g. 0-65535): byte-decomposable as a single segment.
		return [][2]ByteRange{{{hl, hh}, {ll, lh}}}
	}
	segs := [][2]ByteRange{{{hl, hl}, {ll, 0xff}}}
	if hh > hl+1 {
		segs = append(segs, [2]ByteRange{{hl + 1, hh - 1}, {0x00, 0xff}})
	}
	return append(segs, [2]ByteRange{{hh, hh}, {0x00, lh}})
}
