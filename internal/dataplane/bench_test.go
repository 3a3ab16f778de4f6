package dataplane

import (
	"sync"
	"testing"

	"repro/internal/acl"
)

// bench50k builds the 50k-rule matcher once per process; the build costs
// seconds and ~100MB, so benchmarks share it.
var bench50k struct {
	once    sync.Once
	rules   []Rule
	matcher *Matcher
	packets []Packet
}

func bench50kInit() {
	bench50k.once.Do(func() {
		rng := dpRNG{state: 0x35306b} // "50k"
		bench50k.rules = genRandomRules(&rng, 50_000, 0.3)
		m, err := Compile(bench50k.rules, acl.BuildConfig{})
		if err != nil {
			panic(err)
		}
		bench50k.matcher = m
		gen := NewGenerator(GenConfig{
			Rules: bench50k.rules, Routes: testRoutes(),
			MatchFrac: 0.6, V6Frac: 0.3, VLANFrac: 0.3,
			Seed: rng.next(),
		})
		for i := 0; i < 4096; i++ {
			bench50k.packets = append(bench50k.packets, gen.Next())
		}
	})
}

// TestMatcherClassifyZeroAlloc: a compiled classification with reused
// scratch allocates nothing — matched or not, v4 or v6, tagged or not — on
// a policy large enough to walk deep tries.
func TestMatcherClassifyZeroAlloc(t *testing.T) {
	rng := dpRNG{state: 0x7a65726f} // "zero"
	rules := genRandomRules(&rng, 2_000, 0.3)
	m, err := Compile(rules, acl.BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(GenConfig{
		Rules: rules, Routes: testRoutes(),
		MatchFrac: 0.6, V6Frac: 0.3, VLANFrac: 0.3,
		Seed: rng.next(),
	})
	packets := make([]Packet, 512)
	for i := range packets {
		packets[i] = gen.Next()
	}
	scratch := m.Scratch()
	i, matched := 0, 0
	allocs := testing.AllocsPerRun(2*len(packets), func() {
		if _, ok := m.Classify(&packets[i%len(packets)], scratch); ok {
			matched++
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Classify allocates %.2f times per packet, want 0", allocs)
	}
	if matched == 0 || matched == i {
		t.Fatalf("%d of %d packets matched; the mix must exercise both outcomes", matched, i)
	}
}

// BenchmarkDataplaneClassify measures one compiled classification against
// the 50k-rule policy.
func BenchmarkDataplaneClassify(b *testing.B) {
	bench50kInit()
	m := bench50k.matcher
	scratch := m.Scratch()
	b.ReportAllocs()
	b.ResetTimer()
	matched := 0
	for i := 0; i < b.N; i++ {
		p := &bench50k.packets[i%len(bench50k.packets)]
		if _, ok := m.Classify(p, scratch); ok {
			matched++
		}
	}
	_ = matched
}

// BenchmarkDataplanePipeline measures one full traced pipeline run (200
// packets, flow cache on) including integration inputs — the end-to-end
// cost of the workload the experiments drive.
func BenchmarkDataplanePipeline(b *testing.B) {
	cfg := PipelineConfig{
		Policy:       mustPolicy(testPolicy(), acl.BuildConfig{}),
		Packets:      200,
		CacheEntries: 256,
		Gen: GenConfig{
			Flows: 64, FreshEvery: 16,
			MatchFrac: 0.7, V6Frac: 0.3, VLANFrac: 0.3,
			Seed: 0x62656e63, // "benc"
		},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Mismatches) != 0 {
			b.Fatal("verdict mismatch")
		}
	}
}
