package dataplane

import (
	"net/netip"
	"testing"

	"repro/internal/acl"
)

// mapped parses an address literal into the packet layout (v4 mapped).
func mapped(s string) [16]byte {
	a := netip.MustParseAddr(s)
	if a.Is4() {
		return addr4Mapped(a.As4())
	}
	return a.As16()
}

type dpRNG struct{ state uint64 }

func (s *dpRNG) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// genRandomRules synthesizes valid rules over a clustered address space
// so random traffic actually collides with them. v6Frac selects family
// mix; priorities are drawn from a narrow range to force ties.
func genRandomRules(rng *dpRNG, n int, v6Frac float64) []Rule {
	rules := make([]Rule, 0, n)
	for len(rules) < n {
		var r Rule
		r.V6 = float64(rng.next()>>11)/(1<<53) < v6Frac
		switch rng.next() % 4 {
		case 0:
			r.ProtoLo, r.ProtoHi = 0, 255
		case 1:
			r.ProtoLo, r.ProtoHi = ProtoTCP, ProtoTCP
		case 2:
			r.ProtoLo, r.ProtoHi = ProtoUDP, ProtoUDP
		default:
			lo := uint8(rng.next() % 200)
			r.ProtoLo, r.ProtoHi = lo, lo+uint8(rng.next()%56)
		}
		switch rng.next() % 3 {
		case 0:
			r.VLANLo, r.VLANHi = 0, MaxVLAN
		case 1:
			v := uint16(rng.next() % (MaxVLAN + 1))
			r.VLANLo, r.VLANHi = v, v
		default:
			lo := uint16(rng.next() % 2048)
			r.VLANLo, r.VLANHi = lo, lo+uint16(rng.next()%2048)
		}
		randPrefix := func() ([16]byte, int) {
			if !r.V6 {
				var a [16]byte
				a[10], a[11] = 0xff, 0xff
				a[12] = 10
				a[13] = byte(rng.next() % 4)
				a[14] = byte(rng.next() % 16)
				a[15] = byte(rng.next())
				bits := int(rng.next() % 33)
				mapped := a
				clearBelow(&mapped, 96+bits)
				return mapped, bits
			}
			var a [16]byte
			a[0], a[1], a[2], a[3] = 0x20, 0x01, 0x0d, 0xb8
			a[4] = byte(rng.next() % 4)
			for i := 12; i < 16; i++ {
				a[i] = byte(rng.next() % 64)
			}
			bits := int(rng.next() % 129)
			clearBelow(&a, bits)
			return a, bits
		}
		r.SrcAddr, r.SrcBits = randPrefix()
		r.DstAddr, r.DstBits = randPrefix()
		randPorts := func() (uint16, uint16) {
			switch rng.next() % 3 {
			case 0:
				return 0, 0xffff
			case 1:
				p := uint16(rng.next())
				return p, p
			default:
				lo := uint16(rng.next() % 40000)
				return lo, lo + uint16(rng.next()%20000)
			}
		}
		r.SrcPortLo, r.SrcPortHi = randPorts()
		r.DstPortLo, r.DstPortHi = randPorts()
		r.Action = Action(rng.next() % 2)
		r.Priority = int32(rng.next() % 5)
		if err := r.Validate(); err != nil {
			panic(err)
		}
		rules = append(rules, r)
	}
	return rules
}

// clearBelow zeroes address bits below the prefix length.
func clearBelow(a *[16]byte, bits int) {
	for i := 0; i < 16; i++ {
		rem := bits - 8*i
		switch {
		case rem >= 8:
		case rem <= 0:
			a[i] = 0
		default:
			a[i] &= 0xff << (8 - rem)
		}
	}
}

var diffRoutes = testRoutes()

// TestCompiledMatcherDifferential is the acceptance differential: the
// compiled matcher must agree with the linear reference on over a
// million seeded packets spanning IPv4-only, IPv6-only and mixed+VLAN
// rule sets, under both single- and multi-trie builds.
func TestCompiledMatcherDifferential(t *testing.T) {
	perSet := 360_000
	if testing.Short() {
		perSet = 30_000
	}
	sets := []struct {
		name   string
		v6Frac float64
		rules  int
		cfg    acl.BuildConfig
		gen    GenConfig
	}{
		{"v4", 0, 96, acl.BuildConfig{}, GenConfig{MatchFrac: 0.6, VLANFrac: 0.3}},
		{"v6", 1, 96, acl.BuildConfig{}, GenConfig{MatchFrac: 0.6, V6Frac: 1, VLANFrac: 0.3}},
		{"mixed-multitrie", 0.5, 128, acl.BuildConfig{MaxTries: 8, MaxAtomsPerTrie: 48},
			GenConfig{MatchFrac: 0.5, V6Frac: 0.5, VLANFrac: 0.5, DeepDstFrac: 0.3}},
	}
	rng := dpRNG{state: 0x64696666} // "diff"
	total := 0
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			rules := genRandomRules(&rng, set.rules, set.v6Frac)
			m, err := Compile(rules, set.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if set.cfg.MaxAtomsPerTrie > 0 && m.Tries() < 2 {
				t.Fatalf("multi-trie config built %d tries over %d atoms", m.Tries(), m.Atoms())
			}
			gcfg := set.gen
			gcfg.Rules = rules
			gcfg.Routes = diffRoutes
			gcfg.Seed = rng.next()
			gen := NewGenerator(gcfg)
			scratch := m.Scratch()
			matched := 0
			for i := 0; i < perSet; i++ {
				p := gen.Next()
				gotIdx, gotOK := m.Classify(&p, scratch)
				wantIdx, wantOK := LinearClassify(rules, &p)
				if gotIdx != wantIdx || gotOK != wantOK {
					t.Fatalf("packet %d (%+v): compiled (%d,%v) vs linear (%d,%v)",
						i, p, gotIdx, gotOK, wantIdx, wantOK)
				}
				if gotOK {
					matched++
				}
				total++
			}
			if matched == 0 || matched == perSet {
				t.Fatalf("degenerate mix: %d/%d matched", matched, perSet)
			}
		})
	}
	if !testing.Short() && total < 1_000_000 {
		t.Fatalf("differential covered %d packets, want >= 1M", total)
	}
}

// TestCompileShape pins atom expansion and chunking arithmetic.
func TestCompileShape(t *testing.T) {
	// Worst-case 16-bit ranges on vlan and both ports: 3 segments each.
	r := MustParseRules("allow any any4 -> any4 sport 200-60000 dport 200-60000 vlan 1-4000")[0]
	atoms := expandDPRule(0, r)
	if len(atoms) != 27 {
		t.Fatalf("worst-case rule expanded to %d atoms, want 27", len(atoms))
	}
	simple := MustParseRules("allow tcp 10.0.0.0/8 -> any4")[0]
	if n := len(expandDPRule(0, simple)); n != 1 {
		t.Fatalf("simple rule expanded to %d atoms, want 1", n)
	}

	if _, err := Compile(nil, acl.BuildConfig{}); err == nil {
		t.Error("empty rule set compiled")
	}
	bad := simple
	bad.SrcBits = 40
	if _, err := Compile([]Rule{bad}, acl.BuildConfig{}); err == nil {
		t.Error("invalid rule compiled")
	}

	// MaxTries caps the trie count even when MaxAtomsPerTrie is tiny.
	rng := dpRNG{state: 1}
	rules := genRandomRules(&rng, 64, 0.5)
	m, err := Compile(rules, acl.BuildConfig{MaxTries: 3, MaxAtomsPerTrie: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Tries() > 3 {
		t.Fatalf("built %d tries, cap 3", m.Tries())
	}
}

// TestClassifyDetailedStats sanity-checks the walk statistics.
func TestClassifyDetailedStats(t *testing.T) {
	rules := MustParseRules(`
		allow tcp 10.0.0.0/8 -> any4 dport 80 prio 5
		deny any any4 -> any4 prio -1
	`)
	m, err := Compile(rules, acl.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	walk := func(p Packet) (int, bool, acl.WalkStats) {
		key := p.Key()
		return m.set.Classify(key[:], m.Scratch(), nil)
	}
	p := Packet{Proto: ProtoTCP, Src: mapped("10.1.2.3"), Dst: mapped("10.9.9.9"), SrcPort: 1234, DstPort: 80}
	idx, ok, st := walk(p)
	if !ok || idx != 0 {
		t.Fatalf("got (%d,%v), want rule 0", idx, ok)
	}
	if st.Tries != m.Tries() || st.Bytes == 0 || st.Survivors < 2 {
		t.Errorf("stats %+v implausible", st)
	}
	// A v6 packet dies at the family byte: one byte per trie examined.
	p6 := Packet{V6: true, Proto: ProtoTCP, Src: mapped("2001:db8::1"), Dst: mapped("2001:db8::2")}
	_, ok, st = walk(p6)
	if ok || st.Bytes != m.Tries() || st.Survivors != 0 {
		t.Errorf("family-miss stats %+v", st)
	}
}
