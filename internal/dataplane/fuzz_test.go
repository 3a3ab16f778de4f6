package dataplane

import (
	"testing"

	"repro/internal/acl"
)

// FuzzRuleCompile: the spec parser and compiler never panic on arbitrary
// text; whatever parses must round-trip through String, compile, and
// agree with the linear reference on a probe battery.
func FuzzRuleCompile(f *testing.F) {
	f.Add("allow tcp 10.0.0.0/8 -> any4 dport 53 prio 10")
	f.Add("deny udp 2001:db8::/32 -> 2001:db8:9::/48 sport 1000-2000 vlan 100-200")
	f.Add("allow any any4 -> any4")
	f.Add("deny 6-17 any6 -> 2001:db8::1/128 sport 65535 vlan 0-0 prio -9")
	f.Add("allow icmp 10.1.2.3/32 -> 10.0.0.0/8 vlan 4095")
	f.Fuzz(func(t *testing.T, line string) {
		r, err := ParseRule(line)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("parsed rule fails Validate: %v (%q)", err, line)
		}
		r2, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("canonical form %q rejected: %v", r.String(), err)
		}
		if r2 != r {
			t.Fatalf("round-trip changed rule: %+v vs %+v (%q)", r, r2, line)
		}
		rules := []Rule{r}
		m, err := Compile(rules, acl.BuildConfig{})
		if err != nil {
			t.Fatalf("valid rule failed to compile: %v", err)
		}
		scratch := m.Scratch()
		// Probe with packets derived from the rule's own corners plus a
		// seeded spray; compiled and linear must agree on every one.
		gen := NewGenerator(GenConfig{
			Rules: rules, MatchFrac: 0.7,
			V6Frac: map[bool]float64{false: 0, true: 1}[r.V6],
			Seed:   0x66757a7a, // "fuzz"
		})
		for i := 0; i < 64; i++ {
			p := gen.Next()
			gotIdx, gotOK := m.Classify(&p, scratch)
			wantIdx, wantOK := LinearClassify(rules, &p)
			if gotIdx != wantIdx || gotOK != wantOK {
				t.Fatalf("compiled (%d,%v) vs linear (%d,%v) on %+v for %q",
					gotIdx, gotOK, wantIdx, wantOK, p, line)
			}
		}
	})
}

// FuzzPacketParse: the wire parser never panics, and every frame it
// accepts re-serializes to a frame it parses to the same packet.
func FuzzPacketParse(f *testing.F) {
	seedPkts := []Packet{
		{Proto: ProtoTCP, Src: mapped("10.1.2.3"), Dst: mapped("10.9.9.9"), SrcPort: 1234, DstPort: 80},
		{V6: true, Proto: ProtoUDP, VLAN: 100, Src: mapped("2001:db8::1"), Dst: mapped("2001:db8:9::2"), SrcPort: 53, DstPort: 53},
		{Proto: ProtoICMP, VLAN: 4095, Src: mapped("192.168.0.1"), Dst: mapped("8.8.8.8")},
	}
	for _, p := range seedPkts {
		f.Add(p.AppendWire(nil))
	}
	f.Add([]byte{})
	f.Add(make([]byte, 13))
	f.Fuzz(func(t *testing.T, wire []byte) {
		p, err := ParsePacket(wire)
		if err != nil {
			return
		}
		if p.V6 && v4mapped(p.Src) {
			t.Fatalf("accepted v4-mapped v6 source: %+v", p)
		}
		rewire := p.AppendWire(nil)
		p2, err := ParsePacket(rewire)
		if err != nil {
			t.Fatalf("canonical frame rejected: %v (%x)", err, rewire)
		}
		if p2 != p {
			t.Fatalf("parse∘serialize not identity: %+v vs %+v (wire %x)", p, p2, wire)
		}
	})
}
