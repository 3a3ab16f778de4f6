package dpdkapp

import (
	"testing"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/stats"
)

// smallConfig keeps test runs fast: a modest rule set in a handful of tries
// preserves the type-A/B/C ordering with two orders of magnitude less build
// work than the full 50,000-rule table.
func smallConfig(t testing.TB) Config {
	rules := make([]acl.Rule, 0, 1000)
	src := acl.MustAddr("192.168.10.0")
	dst := acl.MustAddr("192.168.11.0")
	for sp := uint16(1); sp <= 10; sp++ {
		for dp := uint16(1); dp <= 100; dp++ {
			rules = append(rules, acl.Rule{
				SrcAddr: src, SrcMaskBits: 24, DstAddr: dst, DstMaskBits: 24,
				SrcPortLo: sp, SrcPortHi: sp, DstPortLo: dp, DstPortHi: dp,
				Action: acl.Drop,
			})
		}
	}
	cls, err := acl.Build(rules, acl.BuildConfig{MaxTries: 20, MaxAtomsPerTrie: 50})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Classifier: cls}
}

func TestPaperPacketSequence(t *testing.T) {
	pkts := PaperPacketSequence(7)
	if len(pkts) != 7 {
		t.Fatalf("len = %d", len(pkts))
	}
	for i, p := range pkts {
		if p.ID != uint64(i+1) {
			t.Errorf("packet %d ID = %d", i, p.ID)
		}
	}
	if PacketTypeOf(1) != acl.TypeA || PacketTypeOf(2) != acl.TypeB || PacketTypeOf(3) != acl.TypeC || PacketTypeOf(4) != acl.TypeA {
		t.Error("type cycling wrong")
	}
	// Types must differ in header fields per Table IV.
	if pkts[0].DstAddr == pkts[1].DstAddr || pkts[1].SrcAddr == pkts[2].SrcAddr {
		t.Error("packet headers do not vary across types")
	}
}

func TestRunRejectsEmptyInput(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("accepted empty packet list")
	}
}

func TestPipelineDeliversAllPacketsInOrder(t *testing.T) {
	cfg := smallConfig(t)
	res, err := Run(cfg, PaperPacketSequence(60))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latencies) != 60 {
		t.Fatalf("delivered %d/60 packets", len(res.Latencies))
	}
	for i, l := range res.Latencies {
		if l.Payload.ID != uint64(i+1) {
			t.Fatalf("packet %d arrived with ID %d; pipeline reordered", i, l.Payload.ID)
		}
		if l.Cycles == 0 {
			t.Errorf("packet %d has zero latency", i)
		}
	}
}

func TestLatencyOrderingByType(t *testing.T) {
	res, err := Run(smallConfig(t), PaperPacketSequence(90))
	if err != nil {
		t.Fatal(err)
	}
	var us [acl.NumPacketTypes][]float64
	for _, l := range res.Latencies[9:] { // skip cache warmup
		pt := PacketTypeOf(l.Payload.ID)
		us[pt] = append(us[pt], res.CyclesToMicros(l.Cycles))
	}
	mA, mB, mC := stats.Mean(us[acl.TypeA]), stats.Mean(us[acl.TypeB]), stats.Mean(us[acl.TypeC])
	if !(mA > mB && mB > mC) {
		t.Errorf("latency ordering violated: A=%.2f B=%.2f C=%.2f us", mA, mB, mC)
	}
}

func TestMarkersBracketEveryPacket(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Markers = true
	res, err := Run(cfg, PaperPacketSequence(30))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Set.Markers); got != 60 {
		t.Fatalf("markers = %d, want 60 (begin+end per packet)", got)
	}
	a, err := core.Integrate(res.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 30 {
		t.Fatalf("reconstructed items = %d, want 30", len(a.Items))
	}
	if a.Diag.OrphanEndMarkers+a.Diag.ReopenedItems+a.Diag.UnclosedItems != 0 {
		t.Errorf("marker anomalies in a clean run: %+v", a.Diag)
	}
}

func TestSamplingProducesAttributableSamples(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Markers = true
	cfg.Reset = 2000
	res, err := Run(cfg, PaperPacketSequence(60))
	if err != nil {
		t.Fatal(err)
	}
	if res.SampleCount == 0 {
		t.Fatal("no samples taken")
	}
	if res.SampleBytes == 0 {
		t.Error("sample bytes not accounted")
	}
	a, err := core.Integrate(res.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	withClassify := 0
	for i := range a.Items {
		if a.Items[i].Func(FnClassify).Samples > 0 {
			withClassify++
		}
	}
	if withClassify < len(a.Items)/2 {
		t.Errorf("only %d/%d items have rte_acl_classify samples", withClassify, len(a.Items))
	}
}

func TestBaselineProbeMeasuresClassify(t *testing.T) {
	cfg := smallConfig(t)
	cfg.BaselineProbe = true
	res, err := Run(cfg, PaperPacketSequence(30))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Baseline) != 30 {
		t.Fatalf("baseline spans = %d, want 30", len(res.Baseline))
	}
	// Baseline spans follow the A > B > C ordering too.
	var byType [acl.NumPacketTypes][]float64
	for _, b := range res.Baseline[6:] {
		byType[PacketTypeOf(b.ID)] = append(byType[PacketTypeOf(b.ID)], float64(b.Cycles))
	}
	if !(stats.Mean(byType[0]) > stats.Mean(byType[2])) {
		t.Error("baseline does not separate type A from C")
	}
}

// TestHybridEstimateMatchesBaseline is the Fig. 9 acceptance criterion in
// miniature: at a healthy sampling rate the hybrid estimate of
// rte_acl_classify tracks the golden instrumented baseline.
func TestHybridEstimateMatchesBaseline(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Markers = true
	cfg.BaselineProbe = true
	cfg.Reset = 1000
	res, err := Run(cfg, PaperPacketSequence(150))
	if err != nil {
		t.Fatal(err)
	}
	base := map[uint64]uint64{}
	for _, b := range res.Baseline {
		base[b.ID] = b.Cycles
	}
	a, err := core.Integrate(res.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rels []float64
	for i := range a.Items {
		it := &a.Items[i]
		fs := it.Func(FnClassify)
		if !fs.Estimable() {
			continue
		}
		truth := float64(base[it.ID])
		rel := (truth - float64(fs.Cycles())) / truth
		rels = append(rels, rel)
	}
	if len(rels) < 100 {
		t.Fatalf("only %d estimable items", len(rels))
	}
	mean := stats.Mean(rels)
	// First-to-last sampling underestimates by up to ~2 intervals; at
	// R=1000 on this small rule set that is bounded and positive.
	if mean < 0 || mean > 0.45 {
		t.Errorf("mean relative underestimate = %.3f, want within (0, 0.45)", mean)
	}
}

// TestOverheadGrowsWithSamplingRate is Fig. 10's shape: latency increase
// over the unprofiled baseline is positive and decreasing in R.
func TestOverheadGrowsWithSamplingRate(t *testing.T) {
	latAt := func(reset uint64, markers bool) float64 {
		cfg := smallConfig(t)
		cfg.Reset = reset
		cfg.Markers = markers
		res, err := Run(cfg, PaperPacketSequence(300))
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanLatencyMicros()
	}
	lStar := latAt(0, false)
	l500 := latAt(500, true)
	l4000 := latAt(4000, true)
	if !(l500 > l4000 && l4000 > lStar) {
		t.Errorf("overhead ordering violated: L*=%.3f L(4000)=%.3f L(500)=%.3f", lStar, l4000, l500)
	}
}

func TestSampleVolumeScalesInverselyWithReset(t *testing.T) {
	countAt := func(reset uint64) uint64 {
		cfg := smallConfig(t)
		cfg.Reset = reset
		res, err := Run(cfg, PaperPacketSequence(200))
		if err != nil {
			t.Fatal(err)
		}
		return res.SampleCount
	}
	c1, c4 := countAt(1000), countAt(4000)
	// The ACL core spins continuously (DPDK-style), so the sample interval
	// is R/IPC + sampleCost: (1000/3+500) vs (4000/3+500) cycles — a 2.2x
	// count ratio, not 4x. The 250 ns per-sample cost flattens the curve
	// at high rates, the same floor effect §IV-C3's data-rate table shows.
	ratio := float64(c1) / float64(c4)
	if ratio < 1.9 || ratio > 2.5 {
		t.Errorf("sample ratio R=1000/R=4000 = %.2f (%d/%d), want ~2.2", ratio, c1, c4)
	}
}

func TestDeterministicPipeline(t *testing.T) {
	run := func() (uint64, uint64) {
		cfg := smallConfig(t)
		cfg.Markers = true
		cfg.Reset = 1500
		res, err := Run(cfg, PaperPacketSequence(50))
		if err != nil {
			t.Fatal(err)
		}
		var lat uint64
		for _, l := range res.Latencies {
			lat += l.Cycles
		}
		return lat, res.SampleCount
	}
	l1, s1 := run()
	l2, s2 := run()
	if l1 != l2 || s1 != s2 {
		t.Errorf("nondeterministic pipeline: (%d,%d) vs (%d,%d)", l1, s1, l2, s2)
	}
}
