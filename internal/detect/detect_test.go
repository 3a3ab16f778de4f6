package detect

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hashx"
	"repro/internal/obs"
	"repro/internal/symtab"
)

// itemGen builds deterministic synthetic items: a fixed function mix with
// seeded multiplicative noise, plus per-test perturbations layered on top.
type itemGen struct {
	tab  *symtab.Table
	fns  []*symtab.Fn
	base []uint64 // per-fn baseline cycles
	rng  hashx.SplitMix64
	next uint64
	tsc  uint64
}

func newItemGen(seed uint64) *itemGen {
	tab := symtab.NewTable()
	g := &itemGen{tab: tab, rng: hashx.SplitMix64{State: seed}, tsc: 1 << 20}
	for _, f := range []struct {
		name string
		cyc  uint64
	}{
		{"parse_request", 4000},
		{"table_lookup", 9000},
		{"render_reply", 6000},
	} {
		g.fns = append(g.fns, tab.MustRegister(f.name, 512))
		g.base = append(g.base, f.cyc)
	}
	return g
}

// item produces the next item on the given core. extra adds cycles to the
// named function (the injected anomaly); "" leaves the mix at baseline.
func (g *itemGen) item(core_ int32, slowFn string, extra uint64) *core.Item {
	g.next++
	it := &core.Item{ID: g.next, Core: core_, BeginTSC: g.tsc}
	t := g.tsc
	for i, fn := range g.fns {
		cyc := g.base[i]
		// ±3% multiplicative noise, deterministic.
		cyc += g.base[i] * (g.rng.Next() % 7) / 100
		cyc -= g.base[i] * 3 / 100
		if fn.Name == slowFn {
			cyc += extra
		}
		it.Funcs = append(it.Funcs, core.FuncSpan{
			Fn: fn, Samples: 4, FirstTSC: t, LastTSC: t + cyc,
		})
		it.SampleCount += 4
		t += cyc
	}
	it.EndTSC = t
	it.Confidence = 1
	g.tsc = t + 1000
	return it
}

func newTestDetector(t *testing.T, cfg Config) *Detector {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Source == "" {
		cfg.Source = "w0"
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestDetectStationaryNoFire(t *testing.T) {
	g := newItemGen(7)
	d := newTestDetector(t, Config{})
	for i := 0; i < 2000; i++ {
		d.Update(g.item(0, "", 0))
	}
	st := d.Stats()
	if st.Changepoints != 0 || st.Verdicts != 0 || st.Active != 0 {
		t.Fatalf("stationary series fired: %+v", st)
	}
}

func TestDetectStepBlamesFunction(t *testing.T) {
	g := newItemGen(11)
	var got []Verdict
	d := newTestDetector(t, Config{
		FreqHz:    2_000_000_000,
		OnVerdict: func(v Verdict) { got = append(got, v) },
	})
	// Warm the baseline, then slow table_lookup by 50% of item cost.
	for i := 0; i < 600; i++ {
		d.Update(g.item(0, "", 0))
	}
	if d.Stats().Changepoints != 0 {
		t.Fatalf("fired during warmup: %+v", d.Stats())
	}
	for i := 0; i < 200; i++ {
		d.Update(g.item(0, "table_lookup", 9000))
	}
	st := d.Stats()
	if st.Changepoints != 1 {
		t.Fatalf("want exactly 1 change event, got %+v", st)
	}
	if st.Active != 1 {
		t.Fatalf("event should stay active on the new level: %+v", st)
	}
	if len(got) == 0 {
		t.Fatal("no verdicts emitted")
	}
	v := got[0]
	if v.Rank != 0 || v.Function != "table_lookup" || v.Core != 0 {
		t.Fatalf("top verdict blames %q core %d (rank %d), want table_lookup core 0 rank 0", v.Function, v.Core, v.Rank)
	}
	// 9000 cycles at 2 GHz = 4500 ns; allow the estimator slack.
	if v.DeltaNs < 3000 || v.DeltaNs > 6500 {
		t.Fatalf("DeltaNs = %d, want ≈4500", v.DeltaNs)
	}
	if v.Source != "w0" || v.Event != 1 {
		t.Fatalf("verdict identity wrong: %+v", v)
	}
	if v.Window.Items <= 0 || v.Window.FirstItem == 0 || v.Window.LastItem < v.Window.FirstItem {
		t.Fatalf("window malformed: %+v", v.Window)
	}
	if !strings.Contains(v.String(), "table_lookup on core 0 gained") {
		t.Fatalf("String() = %q", v.String())
	}
}

func TestDetectRecoveryResolves(t *testing.T) {
	g := newItemGen(13)
	d := newTestDetector(t, Config{})
	for i := 0; i < 600; i++ {
		d.Update(g.item(0, "", 0))
	}
	for i := 0; i < 300; i++ {
		d.Update(g.item(0, "render_reply", 8000))
	}
	if st := d.Stats(); st.Changepoints != 1 || st.Active != 1 {
		t.Fatalf("after step: %+v", st)
	}
	// Recover: series returns to the pre-change level.
	for i := 0; i < 300; i++ {
		d.Update(g.item(0, "", 0))
	}
	st := d.Stats()
	if st.Active != 0 || st.Resolved == 0 {
		t.Fatalf("event did not resolve on recovery: %+v", st)
	}
	if st.FalseResets != 0 {
		t.Fatalf("slow recovery miscounted as false reset: %+v", st)
	}
}

func TestDetectTransientFalseReset(t *testing.T) {
	g := newItemGen(17)
	d := newTestDetector(t, Config{})
	for i := 0; i < 600; i++ {
		d.Update(g.item(0, "", 0))
	}
	// A short spike: fires, then reverts within the Confirm horizon.
	for i := 0; i < 24; i++ {
		d.Update(g.item(0, "table_lookup", 20000))
	}
	for i := 0; i < 300; i++ {
		d.Update(g.item(0, "", 0))
	}
	st := d.Stats()
	if st.Changepoints == 0 {
		t.Fatalf("spike did not fire: %+v", st)
	}
	if st.Active != 0 {
		t.Fatalf("spike event still active: %+v", st)
	}
	if st.FalseResets == 0 {
		t.Fatalf("fast reversion not counted as false reset: %+v", st)
	}
}

// TestDetectDeterminism is the satellite property test at the detector
// layer: the same series must produce byte-identical verdict streams,
// whatever else differs (registry identity, second run).
func TestDetectDeterminism(t *testing.T) {
	run := func() string {
		g := newItemGen(23)
		var sb strings.Builder
		d := newTestDetector(t, Config{
			FreqHz:    2_000_000_000,
			OnVerdict: func(v Verdict) { fmt.Fprintf(&sb, "%+v\n", v) },
		})
		for i := 0; i < 500; i++ {
			d.Update(g.item(int32(i%2), "", 0))
		}
		for i := 0; i < 200; i++ {
			d.Update(g.item(int32(i%2), "parse_request", 6000))
		}
		for i := 0; i < 400; i++ {
			d.Update(g.item(int32(i%2), "", 0))
		}
		fmt.Fprintf(&sb, "stats %+v\n", d.Stats())
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("verdict streams differ:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "parse_request") {
		t.Fatalf("two-core step did not blame parse_request:\n%s", a)
	}
}

func TestDetectZeroAllocSteadyState(t *testing.T) {
	g := newItemGen(29)
	d := newTestDetector(t, Config{})
	items := make([]*core.Item, 4096)
	for i := range items {
		items[i] = g.item(int32(i%2), "", 0)
	}
	// Warm: fill window, baseline maps, scratch.
	for _, it := range items[:2048] {
		d.Update(it)
	}
	i := 2048
	avg := testing.AllocsPerRun(1000, func() {
		d.Update(items[i])
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state Update allocates %.2f allocs/op, want 0", avg)
	}
}

func TestDetectConfigValidation(t *testing.T) {
	if _, err := New(Config{Window: 2*minSegment - 1}); err == nil {
		t.Fatal("window < 2×minSegment accepted")
	}
}

func BenchmarkDetectUpdate(b *testing.B) {
	g := newItemGen(31)
	reg := obs.NewRegistry()
	d, err := New(Config{Source: "bench", Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	items := make([]*core.Item, 4096)
	for i := range items {
		items[i] = g.item(int32(i%4), "", 0)
	}
	for _, it := range items {
		d.Update(it)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Update(items[i%len(items)])
	}
}
