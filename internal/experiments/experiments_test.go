package experiments

import (
	"strings"
	"testing"

	"repro/internal/acl"
)

func TestFig1ConceptShowsFluctuationInTraceOnly(t *testing.T) {
	r, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	// Find A's elapsed time for requests 1 and 2.
	var a1, a2 float64
	for _, row := range r.TraceRows {
		if row.Fn == "A" && row.Request == 1 {
			a1 = row.ElapsedUs
		}
		if row.Fn == "A" && row.Request == 2 {
			a2 = row.ElapsedUs
		}
	}
	if a1 < 5*a2 {
		t.Errorf("trace must show A fluctuating: req1=%.1f req2=%.1f", a1, a2)
	}
	if len(r.ProfileRows) != 3 {
		t.Errorf("profile rows = %d, want 3 (A, B, C)", len(r.ProfileRows))
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "profile") || !strings.Contains(sb.String(), "trace") {
		t.Error("render missing sections")
	}
}

func TestFig2Shape(t *testing.T) {
	r, err := Fig2(1500)
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanRequestUs < 130 || r.MeanRequestUs > 170 {
		t.Errorf("mean request = %.1f us, want ~149", r.MeanRequestUs)
	}
	if r.Under4us < len(r.Rows)*2/3 {
		t.Errorf("only %d/%d functions under 4 us", r.Under4us, len(r.Rows))
	}
	// Rows sorted descending by true time.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].TruthUs > r.Rows[i-1].TruthUs {
			t.Fatal("rows not sorted")
		}
	}
	// Sampled estimates track truth on the heavy functions.
	for _, row := range r.Rows[:3] {
		if row.ProfileUs < row.TruthUs*0.8 || row.ProfileUs > row.TruthUs*1.2 {
			t.Errorf("%s: sampled %.2f vs true %.2f", row.Fn, row.ProfileUs, row.TruthUs)
		}
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "ngx_") {
		t.Error("render missing function names")
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Fig4(Fig4Config{Resets: []uint64{1000, 8000, 64000}, Uops: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 6 {
		t.Fatalf("series = %d, want 6 (3 benches x 2 samplers)", len(r.Series))
	}
	for _, s := range r.Series {
		// Intervals grow with R.
		for i := 1; i < len(s.IntervalUs); i++ {
			if s.IntervalUs[i] <= s.IntervalUs[i-1] {
				t.Errorf("%s/%s: interval not increasing in R: %v", s.Bench, s.Sampler, s.IntervalUs)
			}
		}
		switch s.Sampler {
		case SamplerPEBS:
			// PEBS at R=1000 achieves ~1 us and stays near ideal.
			if s.IntervalUs[0] > 2.5 {
				t.Errorf("%s/pebs interval at R=1000 = %.2f us, want ~1", s.Bench, s.IntervalUs[0])
			}
			if s.IntervalUs[0] < s.IdealUs[0] {
				t.Errorf("%s/pebs beats ideal: %.3f < %.3f", s.Bench, s.IntervalUs[0], s.IdealUs[0])
			}
		case SamplerPerf:
			// perf cannot go below ~10 us no matter the rate.
			if s.IntervalUs[0] < 9.5 {
				t.Errorf("%s/perf interval at R=1000 = %.2f us, should floor near 10", s.Bench, s.IntervalUs[0])
			}
		}
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "astar/pebs") {
		t.Error("render missing series")
	}
}

func TestFig4PerBenchIntervalsDiffer(t *testing.T) {
	r, err := Fig4(Fig4Config{Resets: []uint64{8000}, Uops: 1_000_000})
	if err != nil {
		t.Fatal(err)
	}
	// "the sample intervals for the same reset value are different across
	// benchmarks because the average IPC are different".
	vals := map[string]float64{}
	for _, s := range r.Series {
		if s.Sampler == SamplerPEBS {
			vals[s.Bench] = s.IntervalUs[0]
		}
	}
	if !(vals["astar"] > vals["gcc"] && vals["gcc"] > vals["bzip2"]) {
		t.Errorf("per-bench intervals not ordered by IPC: %v", vals)
	}
}

func TestFig8Shape(t *testing.T) {
	r, err := Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Queries) != 10 {
		t.Fatalf("queries = %d", len(r.Queries))
	}
	q := func(id uint64) Fig8Query { return r.Queries[id-1] }
	// Query 1 total >> query 2 total despite same n.
	if q(1).TotalUs < 3*q(2).TotalUs {
		t.Errorf("fig8 misses the headline fluctuation: q1=%.1f q2=%.1f", q(1).TotalUs, q(2).TotalUs)
	}
	// Query 5 > queries 7 and 9 (n=5 group).
	if q(5).TotalUs < 1.5*q(7).TotalUs {
		t.Errorf("q5=%.1f should exceed q7=%.1f", q(5).TotalUs, q(7).TotalUs)
	}
	// f3 dominates the cold query's breakdown.
	if !(q(1).F3Us > q(1).F1Us && q(1).F3Us > q(1).F2Us) {
		t.Errorf("q1 breakdown wrong: f1=%.1f f2=%.1f f3=%.1f", q(1).F1Us, q(1).F2Us, q(1).F3Us)
	}
	// Detector flags exactly the cold queries.
	flagged := map[uint64]bool{}
	for _, id := range r.Fluctuating {
		flagged[id] = true
	}
	if !flagged[1] || !flagged[5] {
		t.Errorf("fluctuating = %v, want to include 1 and 5", r.Fluctuating)
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "legend") {
		t.Error("render missing stacked-bar legend")
	}
}

// sweepForTest runs the ACL sweep on a reduced rule set and packet count so
// the whole experiment family stays test-fast; the full-scale version runs
// in cmd/fluct and the benchmarks.
func sweepForTest(t *testing.T, packets int, resets []uint64) *ACLSweep {
	t.Helper()
	rules := make([]acl.Rule, 0, 2000)
	src := acl.MustAddr("192.168.10.0")
	dst := acl.MustAddr("192.168.11.0")
	for sp := uint16(1); sp <= 20; sp++ {
		for dp := uint16(1); dp <= 100; dp++ {
			rules = append(rules, acl.Rule{
				SrcAddr: src, SrcMaskBits: 24, DstAddr: dst, DstMaskBits: 24,
				SrcPortLo: sp, SrcPortHi: sp, DstPortLo: dp, DstPortHi: dp,
				Action: acl.Drop,
			})
		}
	}
	cls, err := acl.Build(rules, acl.BuildConfig{MaxTries: 40, MaxAtomsPerTrie: 50})
	if err != nil {
		t.Fatal(err)
	}
	s, err := RunACLSweep(ACLSweepConfig{Packets: packets, Resets: resets, cls: cls})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFig9Shape(t *testing.T) {
	s := sweepForTest(t, 600, []uint64{2000, 4000, 8000})
	r := s.Fig9()
	if len(r.Resets) != 3 {
		t.Fatalf("resets = %v", r.Resets)
	}
	// Baseline ordering A > B > C, by more than 100% A vs C.
	bA, bC := r.Baseline[acl.TypeA], r.Baseline[acl.TypeC]
	if bA.MeanUs < 2*bC.MeanUs {
		t.Errorf("baseline A (%.2f) not >2x C (%.2f)", bA.MeanUs, bC.MeanUs)
	}
	// Estimates at the densest reset track the baseline. Two opposing
	// systematic effects bound them: first-to-last sampling misses up to
	// one interval at each edge (underestimate), while the 250 ns
	// per-sample cost dilates the function while it is being measured
	// (overestimate vs the unperturbed baseline). On this deliberately
	// small rule set the function is only ~2 µs so both effects are
	// relatively large; the full-scale Fig. 9 (cmd/fluct) is much tighter.
	for ty := acl.TypeA; ty <= acl.TypeC; ty++ {
		est := r.ByType[ty][0].MeanUs
		base := r.Baseline[ty].MeanUs
		if est < base*0.5 || est > base*1.6 {
			t.Errorf("type %s: estimate %.2f vs baseline %.2f at densest R", ty, est, base)
		}
		if r.ByType[ty][0].N == 0 {
			t.Errorf("type %s: no estimable packets", ty)
		}
	}
	// §V-B1: as R grows the short type-C function drops below the sample
	// interval and becomes unestimable for most packets.
	first, last := r.ByType[acl.TypeC][0].N, r.ByType[acl.TypeC][len(r.Resets)-1].N
	if last >= first {
		t.Errorf("type C estimable count should collapse with R: %d -> %d", first, last)
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "baseline") {
		t.Error("render missing baseline row")
	}
}

func TestFig10Shape(t *testing.T) {
	s := sweepForTest(t, 800, []uint64{1000, 4000, 16000})
	r := s.Fig10()
	if r.BaseUs <= 0 {
		t.Fatal("no baseline latency")
	}
	for i := range r.OverheadUs {
		if r.OverheadUs[i] <= 0 {
			t.Errorf("overhead at R=%d is %.3f, want positive", r.Resets[i], r.OverheadUs[i])
		}
	}
	// Overhead decreases as R grows.
	for i := 1; i < len(r.OverheadUs); i++ {
		if r.OverheadUs[i] >= r.OverheadUs[i-1] {
			t.Errorf("overhead not decreasing in R: %v", r.OverheadUs)
		}
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "L*") {
		t.Error("render missing L*")
	}
}

func TestSecVCShape(t *testing.T) {
	r, err := SecVC("gcc", []float64{0.05, 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if r.LinearityR2 < 0.999 {
		t.Errorf("interval linearity R2 = %.5f, want ~1 (§V-C)", r.LinearityR2)
	}
	if len(r.Plans) != 2 {
		t.Fatalf("plans = %d", len(r.Plans))
	}
	if r.Plans[0].Err != "" || r.Plans[0].Reset == 0 {
		t.Errorf("5%% budget plan failed: %+v", r.Plans[0])
	}
	if r.Plans[1].Err == "" {
		t.Error("impossible budget produced a plan")
	}
	// Overhead must decrease monotonically across the calibration sweep.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].OverheadFrac >= r.Points[i-1].OverheadFrac {
			t.Errorf("overhead not decreasing in R: %+v", r.Points)
		}
	}
	if _, err := SecVC("perlbench", nil); err == nil {
		t.Error("accepted unknown bench")
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "planner") {
		t.Error("render missing planner table")
	}
}

func TestDataRateShape(t *testing.T) {
	s := sweepForTest(t, 600, []uint64{2000, 4000, 8000})
	r := s.DataRate()
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Volume decreases with R, with a sub-proportional ratio (the 250 ns
	// per-sample cost flattens the curve, like the paper's 270→106 MB/s
	// being less than the 3x reset ratio).
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].MBps >= r.Rows[i-1].MBps {
			t.Errorf("data rate not decreasing: %+v", r.Rows)
		}
	}
	ratio := r.Rows[0].MBps / r.Rows[len(r.Rows)-1].MBps
	resetRatio := float64(r.Rows[len(r.Rows)-1].Reset) / float64(r.Rows[0].Reset)
	if ratio >= resetRatio {
		t.Errorf("rate ratio %.2f should be below reset ratio %.2f (overhead floor)", ratio, resetRatio)
	}
	for _, row := range r.Rows {
		if row.PctOfMemBW <= 0 || row.PctOfMemBW > 25 {
			t.Errorf("bandwidth share %.2f%% implausible", row.PctOfMemBW)
		}
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "MB/s") {
		t.Error("render missing units")
	}
}

func TestFaultSweepShape(t *testing.T) {
	r, err := FaultSweep([]float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	clean, degraded := r.Rows[0], r.Rows[1]
	if clean.MeanFnErrPct != 0 || clean.MeanSamplesLost != 0 {
		t.Errorf("zero-loss row not clean: %+v", clean)
	}
	if clean.DetectorHits != clean.Seeds {
		t.Errorf("detector misses on the clean trace: %d/%d", clean.DetectorHits, clean.Seeds)
	}
	if degraded.MeanSamplesLost == 0 || degraded.MeanFnErrPct <= 0 {
		t.Errorf("30%% loss left no trace on the estimates: %+v", degraded)
	}
	if degraded.MeanConfidence < 0 || degraded.MeanConfidence > 1 {
		t.Errorf("mean confidence %v out of [0,1]", degraded.MeanConfidence)
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "loss rate") || !strings.Contains(sb.String(), "detector hits") {
		t.Error("render missing columns")
	}
}

func TestCrashSweepShape(t *testing.T) {
	r, err := CrashSweep([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	// The durability contract: the crashed rung's final accounting is
	// indistinguishable from the crash-free rung's.
	for _, row := range r.Rows {
		if row.SetsDelivered != uint64(row.SetsGenerated) {
			t.Errorf("kills=%d: delivered %d of %d sets", row.Kills, row.SetsDelivered, row.SetsGenerated)
		}
		if row.ItemsDelivered != row.ItemsGenerated {
			t.Errorf("kills=%d: delivered %d of %d items", row.Kills, row.ItemsDelivered, row.ItemsGenerated)
		}
		if row.LostRecords != 0 || row.AbortedSets != 0 {
			t.Errorf("kills=%d: lost=%d aborted=%d", row.Kills, row.LostRecords, row.AbortedSets)
		}
		if !row.ReportExact {
			t.Errorf("kills=%d: final report differs from local Integrate", row.Kills)
		}
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "kills") || !strings.Contains(sb.String(), "exact") {
		t.Error("render missing columns")
	}
}

// TestNetSweepShape: the network rung's contract since every frame is
// numbered — a cut link costs reconnects and nothing else, so the damaged
// rung's row equals the clean rung's in every cell but that one.
func TestNetSweepShape(t *testing.T) {
	r, err := NetSweep([]float64{0, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	clean, cut := r.Rows[0], r.Rows[1]
	if clean.Reconnects != 0 || cut.Reconnects == 0 {
		t.Errorf("reconnects clean=%d cut=%d: the injector must bite only on the cut rung", clean.Reconnects, cut.Reconnects)
	}
	for _, row := range r.Rows {
		if row.DroppedFrames != 0 || row.LostRecords != 0 || row.Degraded {
			t.Errorf("rate %.2f: dropped=%d lost=%d degraded=%v", row.CutRate, row.DroppedFrames, row.LostRecords, row.Degraded)
		}
	}
	if cut.Items != clean.Items || cut.MeanConfidence != clean.MeanConfidence {
		t.Errorf("cut rung delivered %d items at confidence %v, clean rung %d at %v",
			cut.Items, cut.MeanConfidence, clean.Items, clean.MeanConfidence)
	}
	// The reconnect count depends on a race (see NetSweepRow.Reconnects), so
	// it must not reach the byte-diffed output.
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), ">=1") {
		t.Errorf("render does not reduce %d reconnects to >=1:\n%s", cut.Reconnects, sb.String())
	}
}
