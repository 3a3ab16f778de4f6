package dbsim

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestMixShape(t *testing.T) {
	qs := Mix(2000, 1)
	if len(qs) != 2000 {
		t.Fatalf("queries = %d", len(qs))
	}
	counts := map[QueryKind]int{}
	for i, q := range qs {
		if q.ID != uint64(i+1) {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		counts[q.Kind]++
		if q.Kind == RangeScan && (q.Span < 8 || q.Span > 31) {
			t.Errorf("scan span %d out of range", q.Span)
		}
	}
	if counts[PointRead] < 700 || counts[Insert] < 700 || counts[RangeScan] < 100 {
		t.Errorf("mix degenerate: %v", counts)
	}
	// Deterministic per seed.
	qs2 := Mix(2000, 1)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Fatal("Mix not deterministic")
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("accepted empty queries")
	}
	if _, err := Run(Config{}, []Query{{ID: 0}}); err == nil {
		t.Error("accepted zero ID")
	}
	if _, err := Run(Config{}, []Query{{ID: 1, Kind: RangeScan, Span: 0}}); err == nil {
		t.Error("accepted zero-span scan")
	}
}

func TestBufferPoolCLOCK(t *testing.T) {
	b := newBufferPool(2)
	if b.touch(1) {
		t.Error("cold page hit")
	}
	if !b.touch(1) {
		t.Error("warm page missed")
	}
	b.touch(2)
	b.touch(3) // evicts someone
	if len(b.index) != 2 {
		t.Errorf("resident pages = %d, want capacity 2", len(b.index))
	}
	for p := range b.index {
		if !b.touch(p) {
			t.Errorf("resident page %d missed", p)
		}
	}
	b.markDirty(3)
	if n := b.flushDirty(); n != 1 {
		t.Errorf("flushed %d dirty pages, want 1", n)
	}
	if n := b.flushDirty(); n != 0 {
		t.Errorf("second flush found %d pages", n)
	}
}

// TestTailLatencyShape reproduces the Huang et al. motivation: heavy-tailed
// query latency where the 99th percentile dwarfs the mean and the standard
// deviation is on the order of the mean or larger.
func TestTailLatencyShape(t *testing.T) {
	res, err := Run(Config{Workers: 2}, Mix(3000, 7))
	if err != nil {
		t.Fatal(err)
	}
	var us []float64
	for _, st := range res.Stats {
		us = append(us, res.CyclesToMicros(st.Cycles))
	}
	s := stats.Summarize(us)
	t.Logf("latency: mean=%.1f sd=%.1f p50=%.1f p99=%.1f max=%.1f us", s.Mean, s.Stddev, s.P50, s.P99, s.Max)
	if s.Stddev < s.Mean {
		t.Errorf("std (%.1f) should be >= mean (%.1f) — 'the standard deviation was twice the mean'", s.Stddev, s.Mean)
	}
	if s.P99 < 5*s.P50 {
		t.Errorf("p99 (%.1f) should dwarf p50 (%.1f) — 'the 99th percentile was an order of magnitude greater'", s.P99, s.P50)
	}
}

// TestDiagnosisAttributesStallsToFunctions is the payoff: the tracer tells
// apart the three root causes — page misses land in buf_fetch_page,
// group commits in wal_append, checkpoints in buf_flush_checkpoint.
func TestDiagnosisAttributesStallsToFunctions(t *testing.T) {
	// R=2000 so the ~1-2k-uop pre/post-stall segments of wal_append and
	// buf_fetch_page reliably catch samples on both sides of their stalls.
	res, err := Run(Config{Workers: 2, Reset: 2000}, Mix(2500, 11))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Integrate(res.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 2500 {
		t.Fatalf("items = %d", len(a.Items))
	}
	var fsyncWal, cleanWal []float64
	var missFetch, hitFetch []float64
	var ckptTime []float64
	for i := range a.Items {
		it := &a.Items[i]
		st := res.Stats[it.ID]
		if w := it.Func(FnWalAppend); w.Estimable() {
			if st.Fsynced {
				fsyncWal = append(fsyncWal, a.CyclesToMicros(w.Cycles()))
			} else {
				cleanWal = append(cleanWal, a.CyclesToMicros(w.Cycles()))
			}
		}
		if f := it.Func(FnFetchPage); f.Estimable() && st.Query.Kind == PointRead {
			if st.Misses > 0 {
				missFetch = append(missFetch, a.CyclesToMicros(f.Cycles()))
			} else {
				hitFetch = append(hitFetch, a.CyclesToMicros(f.Cycles()))
			}
		}
		if st.Checkpointed {
			if ck := it.Func(FnCheckpoint); ck.Estimable() {
				ckptTime = append(ckptTime, a.CyclesToMicros(ck.Cycles()))
			}
		}
	}
	if len(missFetch) == 0 || len(hitFetch) == 0 || len(fsyncWal) == 0 {
		t.Fatalf("diagnosis classes empty: miss=%d hit=%d fsync=%d", len(missFetch), len(hitFetch), len(fsyncWal))
	}
	// Median, not mean: a span only straddles the stall when a sample
	// landed in the ~1.5k-uop pre-stall segment (~75% of misses at this
	// R); the remainder see just the post-stall tail and dilute a mean.
	if m, h := stats.Median(missFetch), stats.Median(hitFetch); m < h+80 {
		t.Errorf("missing fetch (median %.1f us) should exceed warm fetch (%.1f us) by the ~100 us disk read", m, h)
	}
	if f := stats.Mean(fsyncWal); f < 120 {
		t.Errorf("fsync-bearing wal_append = %.1f us, want >= 120 (the 150 us flush)", f)
	}
	if len(cleanWal) > 0 && stats.Mean(cleanWal) > 30 {
		t.Errorf("clean wal_append = %.1f us, want tiny", stats.Mean(cleanWal))
	}
	if len(ckptTime) > 0 && stats.Mean(ckptTime) < 50 {
		t.Errorf("checkpoint function = %.1f us, want large", stats.Mean(ckptTime))
	}
}

// TestMultiCoreSimultaneousTracing: both worker cores are sampled at once
// and the integrator keeps them separate (the paper: "the same procedure is
// executed on every core of a multi-core CPU").
func TestMultiCoreSimultaneousTracing(t *testing.T) {
	res, err := Run(Config{Workers: 4, Reset: 8000}, Mix(1200, 3))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Integrate(res.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	perCore := map[int32]int{}
	for i := range a.Items {
		it := &a.Items[i]
		perCore[it.Core]++
		// Round-robin dispatch: query ID determines its worker core.
		wantCore := int32((it.ID-1)%4) + 1
		if it.Core != wantCore {
			t.Fatalf("query %d reconstructed on core %d, want %d", it.ID, it.Core, wantCore)
		}
	}
	if len(perCore) != 4 {
		t.Errorf("items on %d cores, want 4", len(perCore))
	}
	for c, n := range perCore {
		if n != 300 {
			t.Errorf("core %d has %d items, want 300", c, n)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, int) {
		res, err := Run(Config{Workers: 2, Reset: 16000}, Mix(400, 5))
		if err != nil {
			t.Fatal(err)
		}
		var total uint64
		for _, st := range res.Stats {
			total += st.Cycles
		}
		return total, len(res.Set.Samples)
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", t1, s1, t2, s2)
	}
}

// TestFluctuationDetectorOnDB: grouping point reads by key locality, the
// detector flags the disk-read outliers.
func TestFluctuationDetectorOnDB(t *testing.T) {
	res, err := Run(Config{Workers: 2, Reset: 8000}, Mix(2000, 13))
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Integrate(res.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	groups := core.DetectFluctuations(a, func(it *core.Item) string {
		st := res.Stats[it.ID]
		if st.Query.Kind != PointRead {
			return ""
		}
		return "point"
	}, 3, 1.0)
	if len(groups) != 1 {
		t.Fatalf("fluctuating groups = %d, want 1", len(groups))
	}
	// Every flagged outlier must actually have paid a stall.
	for _, it := range groups[0].Outliers {
		st := res.Stats[it.ID]
		if st.Misses == 0 && !st.Fsynced && !st.Checkpointed {
			t.Errorf("query %d flagged with no stall: %+v", it.ID, st)
		}
	}
	if len(groups[0].Outliers) == 0 {
		t.Error("no outliers among point reads despite disk misses")
	}
}

// TestSlowestFirstBreaksTiesByID: equal totals come out in query ID order,
// whatever order the Stats map yields them in.
func TestSlowestFirstBreaksTiesByID(t *testing.T) {
	r := &Result{Stats: map[uint64]QueryStat{
		5: {Cycles: 10}, 2: {Cycles: 10}, 9: {Cycles: 30}, 1: {Cycles: 5}, 7: {Cycles: 10},
	}}
	want := []uint64{9, 2, 5, 7, 1}
	for i := 0; i < 20; i++ {
		if got := r.SlowestFirst(); !slices.Equal(got, want) {
			t.Fatalf("SlowestFirst = %v, want %v", got, want)
		}
	}
}
