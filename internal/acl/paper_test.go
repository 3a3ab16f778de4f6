package acl

import (
	"testing"

	"repro/internal/sim"
)

// paperClassifier is built once; the 50,000-rule compile is the expensive
// part of this package's tests.
var paperC *Classifier

func getPaperClassifier(t testing.TB) *Classifier {
	if paperC == nil {
		paperC = MustBuild(PaperRuleSet(), PaperBuildConfig())
	}
	return paperC
}

func TestPaperRuleSetShape(t *testing.T) {
	rules := PaperRuleSet()
	if len(rules) != PaperRuleCount || len(rules) != 50000 {
		t.Fatalf("rules = %d, want 50000", len(rules))
	}
	// Spot-check Table III corners.
	first, last := rules[0], rules[len(rules)-1]
	if first.SrcPortLo != 1 || first.DstPortLo != 1 {
		t.Errorf("first rule = %v", first)
	}
	if last.SrcPortLo != PaperPartialSrcPort || last.DstPortLo != 500 {
		t.Errorf("last rule = %v", last)
	}
	for _, r := range []Rule{first, last} {
		if r.Action != Drop || r.SrcMaskBits != 24 || r.DstMaskBits != 24 {
			t.Errorf("rule shape wrong: %v", r)
		}
	}
	c := getPaperClassifier(t)
	if c.NumTries() != PaperTrieCount {
		t.Errorf("tries = %d, want 247", c.NumTries())
	}
	if len(c.Rules()) != 50000 {
		t.Errorf("rules = %d", len(c.Rules()))
	}
}

func TestPaperPacketSemantics(t *testing.T) {
	c := getPaperClassifier(t)
	rules := c.Rules()

	// Type A matches rule (sp=10001? no — ports don't match any rule, but
	// addresses do). Per Table IV all three types must pass the firewall
	// (no rule matches their ports), differing only in walk depth.
	for _, pt := range []PacketType{TypeA, TypeB, TypeC} {
		p := PaperPacket(pt, 1)
		wi, wok := LinearClassify(rules, p)
		gi, gok := c.Classify(p)
		if wok != gok || (wok && wi != gi) {
			t.Errorf("type %s: trie (%d,%v) != linear (%d,%v)", pt, gi, gok, wi, wok)
		}
		if gok {
			t.Errorf("type %s matched rule %d; Table IV packets must pass", pt, gi)
		}
	}
}

func TestPaperPacketWalkDepths(t *testing.T) {
	c := getPaperClassifier(t)
	depths := map[PacketType]int{}
	for _, pt := range []PacketType{TypeA, TypeB, TypeC} {
		var perTrie depthMeter
		c.classify(PaperPacket(pt, 1), &perTrie)
		if len(perTrie) != PaperTrieCount {
			t.Fatalf("type %s: %d tries walked", pt, len(perTrie))
		}
		// Every trie holds rules with identical address constraints, so
		// the walk depth is the same in each trie.
		for i, b := range perTrie {
			if b != perTrie[0] {
				t.Fatalf("type %s: trie %d depth %d != trie 0 depth %d", pt, i, b, perTrie[0])
			}
		}
		depths[pt] = perTrie[0]
	}
	// "the type A packets experience the longest latency and the type C
	// ones experience the shortest" (§IV-C2): A uses all three key parts,
	// B two, C one.
	if !(depths[TypeA] > depths[TypeB] && depths[TypeB] > depths[TypeC]) {
		t.Errorf("depth ordering violated: %v", depths)
	}
	// Type A walks into the third key part (the ports, bytes 8-11): "the
	// tries are traversed using all the three parts of the keys".
	if depths[TypeA] <= 8 || depths[TypeA] > 12 {
		t.Errorf("type A depth = %d, want in the ports part (9-12)", depths[TypeA])
	}
	if depths[TypeC] > 4 {
		t.Errorf("type C depth = %d, want within the src addr part", depths[TypeC])
	}
	if depths[TypeB] <= 4 || depths[TypeB] > 8 {
		t.Errorf("type B depth = %d, want within the dst addr part", depths[TypeB])
	}
}

func TestPacketTypeString(t *testing.T) {
	if TypeA.String() != "A" || TypeB.String() != "B" || TypeC.String() != "C" || PacketType(9).String() != "?" {
		t.Error("PacketType.String wrong")
	}
}

func TestPaperPacketPanicsOnUnknownType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for unknown packet type")
		}
	}()
	PaperPacket(PacketType(9), 1)
}

// TestClassifyAllocs pins what one classification allocates: the walk's
// scratch bitset and nothing else, timed or not. A meter boxed per call
// would add one.
func TestClassifyAllocs(t *testing.T) {
	c := getPaperClassifier(t)
	meter := NewCoreMeter(sim.MustNew(sim.Config{Cores: 1}).Core(0), DefaultTimingConfig())
	p := PaperPacket(TypeA, 1)
	if n := testing.AllocsPerRun(20, func() { c.Classify(p) }); n != 1 {
		t.Errorf("Classify allocates %.1f times per call, want 1", n)
	}
	if n := testing.AllocsPerRun(20, func() { c.ClassifyTimed(p, meter) }); n != 1 {
		t.Errorf("ClassifyTimed allocates %.1f times per call, want 1", n)
	}
}

// TestTimingCalibration verifies the Fig. 9 latency targets: with the paper
// rule set on an IPC-3 core, warm-cache rte_acl_classify takes ~12-14 µs
// for type A and ~6 µs for type C, fluctuating "by more than 100%".
func TestTimingCalibration(t *testing.T) {
	c := getPaperClassifier(t)
	m := sim.MustNew(sim.Config{Cores: 1})
	core := m.Core(0)
	core.SetRate(1, 3) // the ACL walk is IPC-3 integer code
	meter := NewCoreMeter(core, DefaultTimingConfig())

	elapsed := func(pt PacketType) float64 {
		// Warm the caches with a few packets, then measure 20.
		for i := 0; i < 5; i++ {
			c.ClassifyTimed(PaperPacket(pt, 1), meter)
		}
		var sum uint64
		const n = 20
		for i := 0; i < n; i++ {
			t0 := core.Now()
			c.ClassifyTimed(PaperPacket(pt, 1), meter)
			sum += core.Now() - t0
		}
		return m.CyclesToMicros(sum / n)
	}
	usA := elapsed(TypeA)
	usB := elapsed(TypeB)
	usC := elapsed(TypeC)
	t.Logf("calibration: A=%.2fus B=%.2fus C=%.2fus", usA, usB, usC)
	if usA < 11 || usA > 15 {
		t.Errorf("type A = %.2f us, want 12-14 (±1)", usA)
	}
	if usC < 5 || usC > 7 {
		t.Errorf("type C = %.2f us, want ~6", usC)
	}
	if !(usA > usB && usB > usC) {
		t.Errorf("ordering violated: A=%.2f B=%.2f C=%.2f", usA, usB, usC)
	}
	if usA < 2*usC {
		t.Errorf("fluctuation %.2f/%.2f = %.2fx, want >2x (\"more than 100%%\")", usA, usC, usA/usC)
	}
}

func BenchmarkClassifyPaperTypeA(b *testing.B) {
	c := getPaperClassifier(b)
	p := PaperPacket(TypeA, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(p)
	}
}

func BenchmarkClassifyPaperTypeC(b *testing.B) {
	c := getPaperClassifier(b)
	p := PaperPacket(TypeC, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(p)
	}
}

func BenchmarkBuildPaperRuleSet(b *testing.B) {
	rules := PaperRuleSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustBuild(rules, PaperBuildConfig())
	}
}
