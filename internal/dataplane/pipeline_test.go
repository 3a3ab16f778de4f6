package dataplane

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/lpm"
)

// testRoutes returns a route fixture with shallow and deep prefixes in
// both families (deep v4 = beyond the DIR-24-8 first level; deep v6 =
// /96+ host-ish routes).
func testRoutes() RouteConfig {
	return RouteConfig{
		V4: []lpm.Route{
			{Prefix: 0, Len: 0, NextHop: 1},
			{Prefix: 0x0a000000, Len: 8, NextHop: 2},  // 10/8
			{Prefix: 0x0a010000, Len: 16, NextHop: 3}, // 10.1/16
			{Prefix: 0x0a010200, Len: 24, NextHop: 4}, // 10.1.2/24 (deep)
			{Prefix: 0x0a010203, Len: 32, NextHop: 5}, // 10.1.2.3/32 (deep)
			{Prefix: 0x0a020000, Len: 24, NextHop: 6}, // 10.2.0/24 (deep)
		},
		V6: []lpm.Route6{
			{Prefix: MustAddr6T("::"), Len: 0, NextHop: 11},
			{Prefix: MustAddr6T("2001:db8::"), Len: 32, NextHop: 12},
			{Prefix: MustAddr6T("2001:db8:1::"), Len: 48, NextHop: 13},
			{Prefix: MustAddr6T("2001:db8::"), Len: 96, NextHop: 14},      // deep
			{Prefix: MustAddr6T("2001:db8::42:0"), Len: 112, NextHop: 15}, // deeper
		},
	}
}

// MustAddr6T adapts lpm.MustAddr6 for fixture literals.
func MustAddr6T(s string) [16]byte { return lpm.MustAddr6(s) }

// testPolicy is a small dual-family policy with ties and port ranges.
func testPolicy() []Rule {
	return MustParseRules(`
		allow tcp 10.0.0.0/8 -> any4 dport 80 prio 10
		allow udp 10.0.0.0/8 -> any4 dport 53 prio 10
		deny tcp 10.3.0.0/16 -> any4 prio 20
		allow any any4 -> any4 prio -1
		allow tcp 2001:db8::/32 -> any6 prio 10
		deny udp 2001:db8::/32 -> 2001:db8:9::/48 vlan 100-200 prio 20
		allow any any6 -> any6 prio -1
	`)
}

// mustPolicy compiles a fixture policy.
func mustPolicy(rules []Rule, build acl.BuildConfig) *Policy {
	p, err := NewPolicy(rules, testRoutes(), build)
	if err != nil {
		panic(err)
	}
	return p
}

func basePipelineConfig() PipelineConfig {
	return PipelineConfig{
		Policy:       mustPolicy(testPolicy(), acl.BuildConfig{}),
		Packets:      300,
		CacheEntries: 256,
		Gen: GenConfig{
			Flows:      64,
			FreshEvery: 16,
			MatchFrac:  0.7,
			V6Frac:     0.3,
			VLANFrac:   0.3,
			Seed:       0x70697065, // "pipe"
		},
	}
}

func reportOf(t *testing.T, r *Result, parallelism int) string {
	t.Helper()
	a, err := core.Integrate(r.Set, core.Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return core.FunctionReportString(a)
}

// TestPipelineTruth: every packet's chain verdict equals the linear
// oracle, and the flow cache actually carried traffic.
func TestPipelineTruth(t *testing.T) {
	r, err := Run(basePipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyTruth(); err != nil {
		t.Fatal(err)
	}
	if len(r.Verdicts) != 300 {
		t.Fatalf("got %d verdicts, want 300", len(r.Verdicts))
	}
	st := r.CacheStats
	if st.Hits == 0 || st.Misses == 0 || st.Inserts != st.Misses {
		t.Errorf("cache stats implausible: %+v", st)
	}
}

// TestVerifyTruthNamesFirstMismatch: a mismatch carries its own verdicts,
// so the error names the first packet's got and want without a lookup.
func TestVerifyTruthNamesFirstMismatch(t *testing.T) {
	got := Verdict{Rule: 3, Action: Allow, NextHop: 2}
	want := Verdict{Rule: -1, Action: NoMatchAction, NextHop: lpm.NoRoute}
	r := &Result{Mismatches: []Mismatch{{ID: 7, Got: got, Want: want}, {ID: 9}}}
	err := r.VerifyTruth()
	if err == nil {
		t.Fatal("VerifyTruth passed two mismatches")
	}
	msg := fmt.Sprintf("dataplane: 2 verdict mismatches (first: packet 7 got %+v want %+v)", got, want)
	if err.Error() != msg {
		t.Errorf("VerifyTruth = %q, want %q", err, msg)
	}
	if err := (&Result{}).VerifyTruth(); err != nil {
		t.Errorf("no mismatches: %v", err)
	}
}

// TestPipelineDeterminism: identical configs produce byte-identical
// traced reports, and integration parallelism never changes the bytes.
func TestPipelineDeterminism(t *testing.T) {
	cfg := basePipelineConfig()
	cfg.Workers = 2
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := r1.Set.Samples; len(s) == 0 || cap(s) != len(s) {
		t.Errorf("the workers' samples were not merged once at exact size: len %d cap %d", len(s), cap(s))
	}
	rep1 := reportOf(t, r1, 1)
	if rep2 := reportOf(t, r2, 1); rep1 != rep2 {
		t.Fatal("two identical runs produced different reports")
	}
	if repN := reportOf(t, r1, 4); rep1 != repN {
		t.Fatal("Parallelism 1 vs 4 produced different report bytes")
	}
	if rep1 == "" {
		t.Fatal("empty report")
	}
}

// TestPipelineWorkersShareOneTrace: with several workers, one merged trace
// reconstructs every packet exactly once, on the core of the worker that
// processed it (worker w owns packet IDs w·Packets+1 .. (w+1)·Packets).
func TestPipelineWorkersShareOneTrace(t *testing.T) {
	cfg := basePipelineConfig()
	cfg.Workers = 3
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Integrate(r.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != cfg.Workers*cfg.Packets {
		t.Fatalf("reconstructed %d packets, want %d", len(a.Items), cfg.Workers*cfg.Packets)
	}
	seen := make([]bool, len(a.Items))
	for i := range a.Items {
		it := &a.Items[i]
		w := int((it.ID - 1) / uint64(cfg.Packets))
		if it.ID == 0 || w >= cfg.Workers || seen[it.ID-1] {
			t.Fatalf("item %d is not one of the run's packets, or is reconstructed twice", it.ID)
		}
		seen[it.ID-1] = true
		if int(it.Core) != w {
			t.Errorf("packet %d reconstructed on core %d, want worker %d's core", it.ID, it.Core, w)
		}
	}
}

// TestPipelineStageSpans: the per-packet items carry the chain's marked
// functions with live cycle estimates, and denied packets skip route.
func TestPipelineStageSpans(t *testing.T) {
	cfg := basePipelineConfig()
	cfg.CacheEntries = 0 // every packet walks, so acl spans are universal
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Integrate(r.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != cfg.Packets {
		t.Fatalf("got %d items, want %d", len(a.Items), cfg.Packets)
	}
	sawRoute, sawDenySkip := false, false
	for i := range a.Items {
		it := &a.Items[i]
		for _, fn := range []string{FnParse, FnACL, FnEmit} {
			if it.Func(fn).Samples == 0 {
				t.Fatalf("item %d missing samples in %s", it.ID, fn)
			}
		}
		routeSamples := it.Func(FnRoute).Samples
		v := r.Verdicts[it.ID-1]
		if v.Action == Allow && routeSamples > 0 {
			sawRoute = true
		}
		if v.Action == Deny && routeSamples == 0 {
			sawDenySkip = true
		}
	}
	if !sawRoute || !sawDenySkip {
		t.Errorf("route coverage: allowed-with-route %v, denied-without %v", sawRoute, sawDenySkip)
	}
}

// TestPipelineScenarios: the churn/cold/skew onsets keep verdicts
// truthful and move the stream the way each mechanism should.
func TestPipelineScenarios(t *testing.T) {
	t.Run("churn", func(t *testing.T) {
		cfg := basePipelineConfig()
		cfg.CacheEntries = 0
		churnConfig(&cfg)
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.VerifyTruth(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("cold", func(t *testing.T) {
		cfg := basePipelineConfig()
		cfg.ColdAt = 0.5
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.VerifyTruth(); err != nil {
			t.Fatal(err)
		}
		// After the cold onset the cache is disabled: hit count must be
		// below what a full warm run reaches.
		warm, err := Run(basePipelineConfig())
		if err != nil {
			t.Fatal(err)
		}
		if r.CacheStats.Hits >= warm.CacheStats.Hits {
			t.Errorf("cold run hits %d >= warm run hits %d", r.CacheStats.Hits, warm.CacheStats.Hits)
		}
	})
	t.Run("skew", func(t *testing.T) {
		cfg := basePipelineConfig()
		cfg.CacheEntries = 0
		cfg.Gen.Flows = 0 // unpooled so the skew reaches fresh destinations
		cfg.SkewAt = 0.5
		cfg.SkewDeepFrac = 0.95
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.VerifyTruth(); err != nil {
			t.Fatal(err)
		}
	})
}

// churnConfig turns on the churn scenario: a 120-rule push at mid-run,
// both policies compiled into many small tries.
func churnConfig(cfg *PipelineConfig) {
	build := acl.BuildConfig{MaxTries: 8, MaxAtomsPerTrie: 32}
	rng := dpRNG{state: 0x636875726e}
	cfg.Policy = mustPolicy(testPolicy(), build)
	cfg.Churn = mustPolicy(append(testPolicy(), genRandomRules(&rng, 120, 0.3)...), build)
	cfg.ChurnAt = 0.5
}

// TestPolicySharedAcrossRounds: two Runs on one Policy at once (churn on,
// so both policies are shared) give the verdicts and trace bytes of rounds
// run on freshly built policies. Under -race it also proves a round only
// reads its policy.
func TestPolicySharedAcrossRounds(t *testing.T) {
	round := func(cfg PipelineConfig, seed uint64) ([]Verdict, []byte) {
		cfg.Gen.Seed = seed
		r, err := Run(cfg)
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		if err := r.VerifyTruth(); err != nil {
			t.Error(err)
		}
		var buf bytes.Buffer
		if err := r.Set.Encode(&buf); err != nil {
			t.Error(err)
		}
		return r.Verdicts, buf.Bytes()
	}
	shared := basePipelineConfig()
	shared.Workers = 2
	churnConfig(&shared)
	seeds := []uint64{1, 2}
	verdicts := make([][]Verdict, len(seeds))
	traces := make([][]byte, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			verdicts[i], traces[i] = round(shared, seed)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		fresh := shared
		churnConfig(&fresh)
		v, tr := round(fresh, seed)
		if !slices.Equal(verdicts[i], v) {
			t.Errorf("seed %d: verdicts on the shared policy differ from a fresh one's", seed)
		}
		if !bytes.Equal(traces[i], tr) {
			t.Errorf("seed %d: trace on the shared policy differs from a fresh one's", seed)
		}
	}
}

// TestRunRejectsMissingPolicy: Run builds no policy of its own.
func TestRunRejectsMissingPolicy(t *testing.T) {
	cfg := basePipelineConfig()
	cfg.Policy = nil
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted a nil Policy")
	}
	cfg = basePipelineConfig()
	cfg.ChurnAt = 0.5
	if _, err := Run(cfg); err == nil {
		t.Error("Run accepted ChurnAt without Churn")
	}
}

// encodeAndReport is a round's encoded trace file and function report.
func encodeAndReport(t *testing.T, r *Result) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Set.Encode(&buf); err != nil {
		t.Error(err)
	}
	a, err := core.Integrate(r.Set, core.Options{})
	if err != nil {
		t.Error(err)
		return nil, ""
	}
	return buf.Bytes(), core.FunctionReportString(a)
}

// TestRunReleaseReuse: Run releases its machine's cache lines and the next
// Run builds its machine from them; the two rounds' trace files and
// function reports are byte-identical.
func TestRunReleaseReuse(t *testing.T) {
	cfg := basePipelineConfig()
	cfg.Workers = 2
	var files [2][]byte
	var reports [2]string
	for i := range files {
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		files[i], reports[i] = encodeAndReport(t, r)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Error("a round on released cache lines wrote another trace file")
	}
	if reports[0] != reports[1] || reports[0] == "" {
		t.Error("a round on released cache lines gave another function report")
	}
}

// TestRunReleaseKeepsSamples: Run releases its PEBS drain buffers once
// merged, and the next Run writes its records into them; the first
// round's samples are its own, so its trace file does not change.
func TestRunReleaseKeepsSamples(t *testing.T) {
	cfg := basePipelineConfig()
	cfg.Workers, cfg.Packets = 2, 2000
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := encodeAndReport(t, first)
	cfg.Gen.Seed++
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got, _ := encodeAndReport(t, first); !bytes.Equal(got, want) {
		t.Error("the next round rewrote a finished round's samples")
	}
}

// TestRunReleaseConcurrent: two Runs at once hand cache lines to and take
// them from one pool; each round still equals one run alone. Under -race
// it checks the hand-off.
func TestRunReleaseConcurrent(t *testing.T) {
	cfg := basePipelineConfig()
	cfg.Workers = 2
	alone, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantFile, wantReport := encodeAndReport(t, alone)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2; j++ {
				r, err := Run(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				file, report := encodeAndReport(t, r)
				if !bytes.Equal(file, wantFile) || report != wantReport {
					t.Error("a concurrent round differs from the round run alone")
				}
			}
		}()
	}
	wg.Wait()
}
