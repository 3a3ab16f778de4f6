package dpchain

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/lpm"
	"repro/internal/trace"
)

// TestPolicyAndRoutes: the canonical fixtures validate and carry the
// properties the scenarios rely on — both families present, deny rules,
// and deep routes for the skew mechanism.
func TestPolicyAndRoutes(t *testing.T) {
	rules := Policy()
	v4, v6, deny := 0, 0, 0
	for i, r := range rules {
		if err := r.Validate(); err != nil {
			t.Fatalf("rule %d: %v", i, err)
		}
		if r.V6 {
			v6++
		} else {
			v4++
		}
		if r.Action == dataplane.Deny {
			deny++
		}
	}
	if v4 == 0 || v6 == 0 || deny == 0 {
		t.Fatalf("policy mix v4=%d v6=%d deny=%d, want all nonzero", v4, v6, deny)
	}

	rc := Routes()
	deep4, deep6 := 0, 0
	for _, r := range rc.V4 {
		if r.Len > lpm.FirstLevelBits {
			deep4++
		}
	}
	for _, r := range rc.V6 {
		if r.Len >= 96 {
			deep6++
		}
	}
	if deep4 == 0 || deep6 == 0 {
		t.Fatalf("routes deep4=%d deep6=%d, want both nonzero", deep4, deep6)
	}
	if _, err := dataplane.NewPolicy(Policy(), rc, acl.BuildConfig{}); err != nil {
		t.Fatal(err)
	}
}

// TestChurnRules: deterministic, valid, and actually bigger than the base
// policy with multi-atom port ranges (the mechanism rule-churn depends on).
func TestChurnRules(t *testing.T) {
	a, b := ChurnRules(50), ChurnRules(50)
	if len(a) != len(Policy())+50 {
		t.Fatalf("ChurnRules(50) has %d rules", len(a))
	}
	for i := range a {
		if err := a[i].Validate(); err != nil {
			t.Fatalf("churn rule %d: %v", i, err)
		}
		if a[i] != b[i] {
			t.Fatalf("churn rule %d differs between calls", i)
		}
	}
	m, err := dataplane.Compile(a, acl.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Atoms() <= len(a) {
		t.Fatalf("churn set compiled to %d atoms for %d rules, want range expansion", m.Atoms(), len(a))
	}
}

// TestRoundDeterminism: Round is the serve/ship workload — it must verify
// its own truth and produce byte-identical reports across calls.
func TestRoundDeterminism(t *testing.T) {
	report := func() []byte {
		set, err := Round(200)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Integrate(set, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return []byte(core.FunctionReportString(a))
	}
	r1, r2 := report(), report()
	if !bytes.Equal(r1, r2) {
		t.Fatal("two identical Rounds produced different reports")
	}
	if len(r1) == 0 {
		t.Fatal("empty report")
	}
}

// BenchmarkDPChainRound times one serve-sized round: 300 packets on two
// cores against the canonical policy, compiled once for every round.
func BenchmarkDPChainRound(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Round(300); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPChainOffline times the offline half of the paper's workflow
// on one dumped round: read the trace file back, integrate it and build
// the per-function report. The round (two workers × 10,000 packets, the
// local_dataplane benchmark's shape) is generated and written once.
func BenchmarkDPChainOffline(b *testing.B) {
	res, err := dataplane.Run(BaseConfig(2, 10000))
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "round.trace")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := res.Set.Encode(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		set, err := trace.Decode(f)
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.Integrate(set, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(core.FunctionReport(a)) == 0 {
			b.Fatal("empty function report")
		}
	}
}

// BenchmarkNewPolicy times the control-plane side a rule push pays:
// compiling the spec's rules and building both route tables.
func BenchmarkNewPolicy(b *testing.B) {
	rules, routes := Policy(), Routes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dataplane.NewPolicy(rules, routes, acl.BuildConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
