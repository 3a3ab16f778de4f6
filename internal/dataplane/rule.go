// Package dataplane is the production-grade function-chain workload: a
// compiled full 5-tuple + VLAN + IPv6 ACL, a flow (verdict) cache, and an
// LPM route stage chained after the ACL — the yanet2-style
// `acl:acl0 → route:route0` dataplane — run as a traced workload on the
// simulator. Where internal/acl reproduces the paper's Table III inputs,
// this package is the workload the tracer and the online detector are
// exercised against: its per-packet cost varies organically (trie walk
// depth, flow-cache warmth, route depth), not by injected dilation.
//
// The compiled matcher is internal/acl's multi-trie TrieSet over a 40-byte
// key (family, proto, VLAN, src/dst address, ports), the same walk the
// paper's 12-byte classifier runs; every field decomposes into per-byte
// contiguous ranges, so one rule expands into at most 3×3×3 = 27 atoms
// (VLAN × src port × dst port edge segments).
// Correctness is anchored by LinearClassify, the O(rules) reference the
// compiled form is differentially tested against on millions of seeded
// packets.
package dataplane

import (
	"fmt"
	"net/netip"
)

// Action is a rule's verdict.
type Action uint8

const (
	// Allow forwards the packet to the route stage.
	Allow Action = iota
	// Deny drops it after classification.
	Deny
)

// String implements fmt.Stringer.
func (a Action) String() string {
	if a == Allow {
		return "allow"
	}
	return "deny"
}

// Well-known IP protocol numbers the spec language names.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// MaxVLAN is the largest 802.1Q VLAN ID; VLAN 0 means untagged.
const MaxVLAN = 4095

// Rule is one dataplane ACL entry: a full 5-tuple (proto, src/dst prefix,
// src/dst port range) plus a VLAN range, per address family. IPv4
// addresses are stored in v4-mapped form (::ffff:a.b.c.d) so both families
// share the 16-byte layout; SrcBits/DstBits count family bits (0..32 for
// v4, 0..128 for v6).
type Rule struct {
	// V6 selects the address family; a rule matches only packets of its
	// own family (dual-family policies use one rule per family, as
	// yanet2's Src4s/Src6s do).
	V6 bool
	// ProtoLo..ProtoHi is the inclusive IP protocol range (0..255 = any).
	ProtoLo, ProtoHi uint8
	// VLANLo..VLANHi is the inclusive VLAN ID range; 0 means untagged, so
	// a 0..MaxVLAN range matches tagged and untagged alike.
	VLANLo, VLANHi uint16
	// SrcAddr/SrcBits and DstAddr/DstBits are the CIDR prefixes.
	SrcAddr [16]byte
	SrcBits int
	DstAddr [16]byte
	DstBits int
	// Port ranges, inclusive. Packets of portless protocols carry 0.
	SrcPortLo, SrcPortHi uint16
	DstPortLo, DstPortHi uint16
	// Action and Priority (larger wins; ties keep the lowest rule index).
	Action   Action
	Priority int32
}

// v4mapped reports whether a lives in the v4-mapped space ::ffff:0:0/96.
func v4mapped(a [16]byte) bool {
	for i := 0; i < 10; i++ {
		if a[i] != 0 {
			return false
		}
	}
	return a[10] == 0xff && a[11] == 0xff
}

// effectiveBits maps family prefix bits onto the 16-byte layout: a v4 /n
// is a /96+n over the mapped form.
func effectiveBits(v6 bool, bits int) int {
	if v6 {
		return bits
	}
	return 96 + bits
}

// Validate reports whether the rule is well-formed.
func (r Rule) Validate() error {
	maxBits := 32
	if r.V6 {
		maxBits = 128
	}
	if r.SrcBits < 0 || r.SrcBits > maxBits {
		return fmt.Errorf("dataplane: src prefix /%d out of range for family", r.SrcBits)
	}
	if r.DstBits < 0 || r.DstBits > maxBits {
		return fmt.Errorf("dataplane: dst prefix /%d out of range for family", r.DstBits)
	}
	if !r.V6 {
		if !v4mapped(r.SrcAddr) || !v4mapped(r.DstAddr) {
			return fmt.Errorf("dataplane: v4 rule addresses must be v4-mapped")
		}
	} else {
		if v4mapped(r.SrcAddr) || v4mapped(r.DstAddr) {
			return fmt.Errorf("dataplane: v6 rule addresses must not be v4-mapped")
		}
	}
	if r.ProtoLo > r.ProtoHi {
		return fmt.Errorf("dataplane: proto range [%d,%d] inverted", r.ProtoLo, r.ProtoHi)
	}
	if r.VLANLo > r.VLANHi {
		return fmt.Errorf("dataplane: vlan range [%d,%d] inverted", r.VLANLo, r.VLANHi)
	}
	if r.VLANHi > MaxVLAN {
		return fmt.Errorf("dataplane: vlan %d beyond %d", r.VLANHi, MaxVLAN)
	}
	if r.SrcPortLo > r.SrcPortHi {
		return fmt.Errorf("dataplane: src port range [%d,%d] inverted", r.SrcPortLo, r.SrcPortHi)
	}
	if r.DstPortLo > r.DstPortHi {
		return fmt.Errorf("dataplane: dst port range [%d,%d] inverted", r.DstPortLo, r.DstPortHi)
	}
	return nil
}

// prefixMatch reports whether the first bits of a and b agree.
func prefixMatch(a, b [16]byte, bits int) bool {
	for i := 0; i < 16 && bits > 0; i++ {
		var keep byte = 0xff
		if bits < 8 {
			keep = 0xff << (8 - bits)
		}
		if (a[i]^b[i])&keep != 0 {
			return false
		}
		bits -= 8
	}
	return true
}

// Matches is the linear reference semantics the compiled matcher is
// differentially tested against.
func (r Rule) Matches(p *Packet) bool {
	if r.V6 != p.V6 {
		return false
	}
	if p.Proto < r.ProtoLo || p.Proto > r.ProtoHi {
		return false
	}
	if p.VLAN < r.VLANLo || p.VLAN > r.VLANHi {
		return false
	}
	if !prefixMatch(r.SrcAddr, p.Src, effectiveBits(r.V6, r.SrcBits)) {
		return false
	}
	if !prefixMatch(r.DstAddr, p.Dst, effectiveBits(r.V6, r.DstBits)) {
		return false
	}
	if p.SrcPort < r.SrcPortLo || p.SrcPort > r.SrcPortHi {
		return false
	}
	if p.DstPort < r.DstPortLo || p.DstPort > r.DstPortHi {
		return false
	}
	return true
}

// LinearClassify scans rules sequentially and returns the index of the
// best (highest priority, then lowest index) matching rule. It is the
// O(rules) oracle the compiled matcher must agree with.
func LinearClassify(rules []Rule, p *Packet) (int, bool) {
	best := -1
	for i := range rules {
		if !rules[i].Matches(p) {
			continue
		}
		if best == -1 || rules[i].Priority > rules[best].Priority {
			best = i
		}
	}
	return best, best >= 0
}

// addrString renders a 16-byte address in its family's literal form.
func addrString(a [16]byte, v6 bool) string {
	if !v6 {
		return fmt.Sprintf("%d.%d.%d.%d", a[12], a[13], a[14], a[15])
	}
	return netip.AddrFrom16(a).String()
}
