package dataplane

import (
	"errors"
	"fmt"
)

// Packet carries the header fields the chain inspects plus the data-item
// ID the tracer's markers record. Addresses use the shared 16-byte layout
// (v4-mapped for IPv4). Portless protocols carry zero ports.
type Packet struct {
	ID               uint64
	V6               bool
	VLAN             uint16 // 0 = untagged
	Proto            uint8
	Src, Dst         [16]byte
	SrcPort, DstPort uint16
}

// KeyLen is the classification key width: family(1) + proto(1) + vlan(2) +
// src(16) + dst(16) + sport(2) + dport(2).
const KeyLen = 40

// Key offsets within the 40-byte layout.
const (
	keyOffFamily = 0
	keyOffProto  = 1
	keyOffVLAN   = 2
	keyOffSrc    = 4
	keyOffDst    = 20
	keyOffSPort  = 36
	keyOffDPort  = 38
)

// Key returns the packet's classification key. It excludes the ID, so two
// packets of one flow share a key — the property the flow cache memoizes
// on (identical key ⇒ identical verdict).
func (p *Packet) Key() [KeyLen]byte {
	var k [KeyLen]byte
	k[keyOffFamily] = 4
	if p.V6 {
		k[keyOffFamily] = 6
	}
	k[keyOffProto] = p.Proto
	k[keyOffVLAN], k[keyOffVLAN+1] = byte(p.VLAN>>8), byte(p.VLAN)
	copy(k[keyOffSrc:], p.Src[:])
	copy(k[keyOffDst:], p.Dst[:])
	k[keyOffSPort], k[keyOffSPort+1] = byte(p.SrcPort>>8), byte(p.SrcPort)
	k[keyOffDPort], k[keyOffDPort+1] = byte(p.DstPort>>8), byte(p.DstPort)
	return k
}

// hasPorts reports whether the protocol carries an L4 port pair we parse.
func hasPorts(proto uint8) bool { return proto == ProtoTCP || proto == ProtoUDP }

// Wire format: a simplified Ethernet II frame. 12 bytes of MACs, an
// optional 802.1Q tag (0x8100 + TCI), an ethertype (0x0800 IPv4 / 0x86DD
// IPv6), the IP header, and for TCP/UDP the first 4 bytes of L4 (the port
// pair). AppendWire emits the canonical form (IHL=5, zero TOS/TTL noise
// fields, exact total length); ParsePacket accepts IPv4 options and
// trailing bytes, so parse∘serialize is the identity on Packets while
// serialize∘parse normalizes frames.

const (
	etherTypeVLAN = 0x8100
	etherTypeIPv4 = 0x0800
	etherTypeIPv6 = 0x86DD
)

var (
	errTruncated = errors.New("dataplane: truncated frame")
	// ErrNotIP is returned for ethertypes the chain does not classify.
	ErrNotIP = errors.New("dataplane: not an IP frame")
)

// ParsePacket decodes a wire frame into a Packet (ID zero). It never
// panics on arbitrary input — FuzzPacketParse holds it to that.
func ParsePacket(b []byte) (Packet, error) {
	var p Packet
	if len(b) < 14 {
		return p, errTruncated
	}
	off := 12
	et := uint16(b[off])<<8 | uint16(b[off+1])
	off += 2
	if et == etherTypeVLAN {
		if len(b) < off+4 {
			return p, errTruncated
		}
		tci := uint16(b[off])<<8 | uint16(b[off+1])
		p.VLAN = tci & 0x0fff
		et = uint16(b[off+2])<<8 | uint16(b[off+3])
		off += 4
	}
	switch et {
	case etherTypeIPv4:
		if len(b) < off+20 {
			return p, errTruncated
		}
		vihl := b[off]
		if vihl>>4 != 4 {
			return p, fmt.Errorf("dataplane: bad IPv4 version nibble %d", vihl>>4)
		}
		ihl := int(vihl&0x0f) * 4
		if ihl < 20 || len(b) < off+ihl {
			return p, errTruncated
		}
		p.Proto = b[off+9]
		p.Src[10], p.Src[11] = 0xff, 0xff
		copy(p.Src[12:], b[off+12:off+16])
		p.Dst[10], p.Dst[11] = 0xff, 0xff
		copy(p.Dst[12:], b[off+16:off+20])
		off += ihl
	case etherTypeIPv6:
		if len(b) < off+40 {
			return p, errTruncated
		}
		if b[off]>>4 != 6 {
			return p, fmt.Errorf("dataplane: bad IPv6 version nibble %d", b[off]>>4)
		}
		p.V6 = true
		p.Proto = b[off+6]
		copy(p.Src[:], b[off+8:off+24])
		copy(p.Dst[:], b[off+24:off+40])
		off += 40
	default:
		return p, ErrNotIP
	}
	if hasPorts(p.Proto) {
		if len(b) < off+4 {
			return p, errTruncated
		}
		p.SrcPort = uint16(b[off])<<8 | uint16(b[off+1])
		p.DstPort = uint16(b[off+2])<<8 | uint16(b[off+3])
	}
	if p.V6 && v4mapped(p.Src) {
		// A v6 header carrying v4-mapped addresses would collide with the
		// v4 key space; reject rather than misclassify.
		return p, fmt.Errorf("dataplane: v4-mapped address in IPv6 header")
	}
	return p, nil
}

// canonical source/destination MACs for generated frames.
var wireMACs = [12]byte{0x02, 0, 0, 0, 0, 0x02, 0x02, 0, 0, 0, 0, 0x01}

// AppendWire appends the canonical wire form of p to dst and returns the
// extended slice. ParsePacket(AppendWire(p)) reproduces p (modulo ID).
func (p *Packet) AppendWire(dst []byte) []byte {
	dst = append(dst, wireMACs[:]...)
	et := uint16(etherTypeIPv4)
	if p.V6 {
		et = etherTypeIPv6
	}
	if p.VLAN != 0 {
		dst = append(dst, byte(etherTypeVLAN>>8), byte(etherTypeVLAN&0xff),
			byte(p.VLAN>>8), byte(p.VLAN))
	}
	dst = append(dst, byte(et>>8), byte(et))
	l4 := 0
	if hasPorts(p.Proto) {
		l4 = 4
	}
	if !p.V6 {
		total := 20 + l4
		dst = append(dst,
			0x45, 0, byte(total>>8), byte(total), // version/IHL, TOS, total length
			0, 0, 0, 0, // identification, flags/fragment
			64, p.Proto, 0, 0, // TTL, proto, checksum (unmodeled)
		)
		dst = append(dst, p.Src[12:16]...)
		dst = append(dst, p.Dst[12:16]...)
	} else {
		dst = append(dst,
			0x60, 0, 0, 0, // version/TC/flow label
			byte(l4>>8), byte(l4), p.Proto, 64, // payload length, next header, hop limit
		)
		dst = append(dst, p.Src[:]...)
		dst = append(dst, p.Dst[:]...)
	}
	if l4 > 0 {
		dst = append(dst, byte(p.SrcPort>>8), byte(p.SrcPort),
			byte(p.DstPort>>8), byte(p.DstPort))
	}
	return dst
}
