package acl

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func simpleRules() []Rule {
	return []Rule{
		{SrcAddr: MustAddr("10.0.0.0"), SrcMaskBits: 8, DstMaskBits: 0, SrcPortHi: 65535, DstPortHi: 65535, Action: Drop, Priority: 1},
		{SrcAddr: MustAddr("10.1.0.0"), SrcMaskBits: 16, DstMaskBits: 0, SrcPortHi: 65535, DstPortLo: 80, DstPortHi: 80, Action: Permit, Priority: 5},
		{SrcMaskBits: 0, DstAddr: MustAddr("192.168.1.1"), DstMaskBits: 32, SrcPortLo: 1000, SrcPortHi: 2000, DstPortHi: 65535, Action: Drop, Priority: 3},
	}
}

func TestMustAddr(t *testing.T) {
	if got := MustAddr("192.168.10.4"); got != 0xc0a80a04 {
		t.Errorf("MustAddr = %#x, want 0xc0a80a04", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddr accepted garbage")
		}
	}()
	MustAddr("not-an-ip")
}

func TestPacketKeyLayout(t *testing.T) {
	p := Packet{SrcAddr: 0x01020304, DstAddr: 0x05060708, SrcPort: 0x0a0b, DstPort: 0x0c0d}
	k := p.Key()
	want := [KeyBytes]byte{1, 2, 3, 4, 5, 6, 7, 8, 0x0a, 0x0b, 0x0c, 0x0d}
	if k != want {
		t.Errorf("key = %v, want %v", k, want)
	}
}

func TestRuleMatches(t *testing.T) {
	r := Rule{
		SrcAddr: MustAddr("192.168.10.0"), SrcMaskBits: 24,
		DstAddr: MustAddr("192.168.11.0"), DstMaskBits: 24,
		SrcPortLo: 10, SrcPortHi: 20, DstPortLo: 30, DstPortHi: 40,
	}
	ok := Packet{SrcAddr: MustAddr("192.168.10.200"), DstAddr: MustAddr("192.168.11.1"), SrcPort: 15, DstPort: 35}
	if !r.Matches(ok) {
		t.Error("in-range packet rejected")
	}
	cases := map[string]Packet{
		"src addr": {SrcAddr: MustAddr("192.168.12.1"), DstAddr: MustAddr("192.168.11.1"), SrcPort: 15, DstPort: 35},
		"dst addr": {SrcAddr: MustAddr("192.168.10.1"), DstAddr: MustAddr("192.168.9.1"), SrcPort: 15, DstPort: 35},
		"src port": {SrcAddr: MustAddr("192.168.10.1"), DstAddr: MustAddr("192.168.11.1"), SrcPort: 21, DstPort: 35},
		"dst port": {SrcAddr: MustAddr("192.168.10.1"), DstAddr: MustAddr("192.168.11.1"), SrcPort: 15, DstPort: 29},
	}
	for name, p := range cases {
		if r.Matches(p) {
			t.Errorf("packet with bad %s accepted", name)
		}
	}
}

func TestRuleZeroMaskMatchesAll(t *testing.T) {
	r := Rule{SrcMaskBits: 0, DstMaskBits: 0, SrcPortHi: 65535, DstPortHi: 65535}
	if !r.Matches(Packet{SrcAddr: 0xffffffff, DstAddr: 0, SrcPort: 9999, DstPort: 1}) {
		t.Error("wildcard rule rejected a packet")
	}
}

func TestRuleValidate(t *testing.T) {
	bad := []Rule{
		{SrcMaskBits: -1},
		{SrcMaskBits: 33},
		{DstMaskBits: 40},
		{SrcPortLo: 10, SrcPortHi: 5},
		{DstPortLo: 10, DstPortHi: 5},
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Errorf("bad rule %d validated", i)
		}
	}
	good := Rule{SrcMaskBits: 24, DstMaskBits: 32, SrcPortHi: 100, DstPortHi: 100}
	if err := good.Validate(); err != nil {
		t.Errorf("good rule rejected: %v", err)
	}
}

func TestLinearClassifyPriority(t *testing.T) {
	rules := simpleRules()
	// Packet matching rules 0 (prio 1) and 1 (prio 5): highest wins.
	p := Packet{SrcAddr: MustAddr("10.1.2.3"), DstAddr: 0, SrcPort: 5, DstPort: 80}
	idx, ok := LinearClassify(rules, p)
	if !ok || idx != 1 {
		t.Errorf("LinearClassify = (%d,%v), want (1,true)", idx, ok)
	}
	if _, ok := LinearClassify(rules, Packet{SrcAddr: MustAddr("11.0.0.1")}); ok {
		t.Error("non-matching packet classified")
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := Build(nil, BuildConfig{}); err == nil {
		t.Error("accepted empty rules")
	}
	if _, err := Build([]Rule{{SrcMaskBits: 99}}, BuildConfig{}); err == nil {
		t.Error("accepted invalid rule")
	}
	if _, err := Build(simpleRules(), BuildConfig{MaxTries: -1, MaxAtomsPerTrie: 1}); err == nil {
		t.Error("accepted negative MaxTries")
	}
}

func TestClassifyAgreesOnSimpleRules(t *testing.T) {
	rules := simpleRules()
	c := MustBuild(rules, BuildConfig{})
	pkts := []Packet{
		{SrcAddr: MustAddr("10.1.2.3"), SrcPort: 5, DstPort: 80},
		{SrcAddr: MustAddr("10.9.9.9"), SrcPort: 1, DstPort: 1},
		{SrcAddr: MustAddr("11.0.0.1"), DstAddr: MustAddr("192.168.1.1"), SrcPort: 1500, DstPort: 7},
		{SrcAddr: MustAddr("11.0.0.1"), DstAddr: MustAddr("192.168.1.2"), SrcPort: 1500, DstPort: 7},
	}
	for i, p := range pkts {
		wi, wok := LinearClassify(rules, p)
		gi, gok := c.Classify(p)
		if wi != gi || wok != gok {
			t.Errorf("packet %d: trie (%d,%v) != linear (%d,%v)", i, gi, gok, wi, wok)
		}
	}
}

func TestPortSegments(t *testing.T) {
	cases := []struct {
		lo, hi uint16
		nsegs  int
	}{
		{80, 80, 1},    // exact
		{0, 65535, 1},  // full range: low byte spans 0..ff, one segment
		{1, 750, 3},    // spans byte boundary
		{256, 511, 1},  // exactly one high byte
		{100, 200, 1},  // same high byte
		{255, 256, 2},  // adjacent high bytes, no middle
		{512, 1023, 1}, // low byte 0..ff across two high bytes
	}
	for _, c := range cases {
		segs := splitRange16(c.lo, c.hi)
		want := c.nsegs
		if len(segs) != want {
			t.Errorf("portSegments(%d,%d) = %d segs, want %d", c.lo, c.hi, len(segs), want)
		}
		// Verify coverage: every port in [lo,hi] in exactly one segment.
		for v := 0; v <= 65535; v += 7 {
			hb, lb := byte(v>>8), byte(v)
			in := 0
			for _, s := range segs {
				if hb >= s[0].Lo && hb <= s[0].Hi && lb >= s[1].Lo && lb <= s[1].Hi {
					in++
				}
			}
			want := 0
			if uint16(v) >= c.lo && uint16(v) <= c.hi {
				want = 1
			}
			if in != want {
				t.Fatalf("portSegments(%d,%d): port %d covered %d times, want %d", c.lo, c.hi, v, in, want)
			}
		}
	}
}

func TestTrieSplitting(t *testing.T) {
	rules := make([]Rule, 100)
	for i := range rules {
		p := uint16(i + 1)
		// Exact ports => one atom per rule, so atom and rule counts match.
		rules[i] = Rule{SrcMaskBits: 0, DstMaskBits: 0, SrcPortLo: p, SrcPortHi: p, DstPortLo: 1, DstPortHi: 1}
	}
	c := MustBuild(rules, BuildConfig{MaxTries: 50, MaxAtomsPerTrie: 10})
	if c.NumTries() != 10 {
		t.Errorf("tries = %d, want 10", c.NumTries())
	}
	// Capped by MaxTries.
	c = MustBuild(rules, BuildConfig{MaxTries: 4, MaxAtomsPerTrie: 10})
	if c.NumTries() != 4 {
		t.Errorf("tries = %d, want 4 (capped)", c.NumTries())
	}
	// Splitting must not change results.
	for port := uint16(1); port <= 101; port += 5 {
		p := Packet{SrcPort: port, DstPort: 1}
		wi, wok := LinearClassify(rules, p)
		gi, gok := c.Classify(p)
		if wi != gi || wok != gok {
			t.Errorf("port %d: split trie (%d,%v) != linear (%d,%v)", port, gi, gok, wi, wok)
		}
	}
}

// depthMeter records how many key bytes each trie of a walk examined.
type depthMeter []int

func (d *depthMeter) Trie(int)            {}
func (d *depthMeter) Walked(_, bytes int) { *d = append(*d, bytes) }
func (d *depthMeter) Survivor()           {}

func TestEarlyTerminationDepths(t *testing.T) {
	// One trie, rules pinned to specific src/dst nets.
	rules := []Rule{{
		SrcAddr: MustAddr("192.168.10.0"), SrcMaskBits: 24,
		DstAddr: MustAddr("192.168.11.0"), DstMaskBits: 24,
		SrcPortLo: 1, SrcPortHi: 1, DstPortLo: 1, DstPortHi: 1,
	}}
	c := MustBuild(rules, BuildConfig{})
	if c.NumTries() != 1 {
		t.Fatalf("tries = %d", c.NumTries())
	}
	cases := []struct {
		p     Packet
		depth int
	}{
		// Full match walks all 12 bytes.
		{Packet{SrcAddr: MustAddr("192.168.10.4"), DstAddr: MustAddr("192.168.11.5"), SrcPort: 1, DstPort: 1}, 12},
		// Src mismatch at the third byte stops the walk there.
		{Packet{SrcAddr: MustAddr("192.168.12.4"), DstAddr: MustAddr("192.168.11.5"), SrcPort: 1, DstPort: 1}, 3},
		// Dst mismatch at byte 7.
		{Packet{SrcAddr: MustAddr("192.168.10.4"), DstAddr: MustAddr("192.168.22.5"), SrcPort: 1, DstPort: 1}, 7},
		// Port mismatch at byte 9 (src port low byte).
		{Packet{SrcAddr: MustAddr("192.168.10.4"), DstAddr: MustAddr("192.168.11.5"), SrcPort: 7, DstPort: 1}, 10},
	}
	for i, cse := range cases {
		var depths depthMeter
		c.classify(cse.p, &depths)
		if depths[0] != cse.depth {
			t.Errorf("case %d: walked %d bytes, want %d", i, depths[0], cse.depth)
		}
	}
}

// TestConcurrentClassification locks in the Classifier's immutability
// contract: many goroutines classifying through one compiled rule set (as
// RSS worker cores do) must agree with the sequential answer. Run with
// -race to catch shared scratch state.
func TestConcurrentClassification(t *testing.T) {
	rules := simpleRules()
	c := MustBuild(rules, BuildConfig{})
	pkts := make([]Packet, 64)
	want := make([]int, len(pkts))
	for i := range pkts {
		pkts[i] = Packet{SrcAddr: uint32(i) * 2654435761, DstAddr: uint32(i) * 40503, SrcPort: uint16(i * 131), DstPort: uint16(i * 17)}
		want[i], _ = c.Classify(pkts[i])
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for rep := 0; rep < 50; rep++ {
				for i, p := range pkts {
					if got, _ := c.Classify(p); got != want[i] {
						done <- fmt.Errorf("packet %d: %d != %d", i, got, want[i])
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestQuickTrieMatchesLinear is the central property test: on random rule
// sets and random packets, the multi-trie classifier and the linear scan
// agree exactly.
func TestQuickTrieMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	prop := func(seed int64, nRules, nPkts uint8, maxAtoms uint8) bool {
		r := rand.New(rand.NewSource(seed))
		rules := make([]Rule, int(nRules%40)+1)
		for i := range rules {
			lo1, hi1 := uint16(r.Intn(2000)), uint16(r.Intn(2000))
			if lo1 > hi1 {
				lo1, hi1 = hi1, lo1
			}
			lo2, hi2 := uint16(r.Intn(70000%65536)), uint16(r.Intn(65536))
			if lo2 > hi2 {
				lo2, hi2 = hi2, lo2
			}
			rules[i] = Rule{
				SrcAddr:     r.Uint32(),
				SrcMaskBits: r.Intn(33),
				DstAddr:     r.Uint32(),
				DstMaskBits: r.Intn(33),
				SrcPortLo:   lo1, SrcPortHi: hi1,
				DstPortLo: lo2, DstPortHi: hi2,
				Action:   Action(r.Intn(2)),
				Priority: int32(r.Intn(5)),
			}
		}
		c, err := Build(rules, BuildConfig{MaxTries: 16, MaxAtomsPerTrie: int(maxAtoms%7) + 1})
		if err != nil {
			return false
		}
		for k := 0; k < int(nPkts%30)+5; k++ {
			var p Packet
			if r.Intn(2) == 0 && len(rules) > 0 {
				// Bias half the packets toward rule space so matches happen.
				rr := rules[r.Intn(len(rules))]
				p = Packet{
					SrcAddr: rr.SrcAddr, DstAddr: rr.DstAddr,
					SrcPort: rr.SrcPortLo, DstPort: rr.DstPortHi,
				}
			} else {
				p = Packet{SrcAddr: r.Uint32(), DstAddr: r.Uint32(), SrcPort: uint16(r.Intn(65536)), DstPort: uint16(r.Intn(65536))}
			}
			wi, wok := LinearClassify(rules, p)
			gi, gok := c.Classify(p)
			if wok != gok {
				return false
			}
			if wok && rules[wi].Priority != rules[gi].Priority {
				// Same priority ties may resolve to different indices only
				// if priorities differ — equal priority must tie-break to
				// the same (lowest) index.
				return false
			}
			if wok && rules[wi].Priority == rules[gi].Priority && wi != gi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120, Rand: rng}); err != nil {
		t.Error(err)
	}
}
