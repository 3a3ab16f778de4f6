package agg

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/symtab"
	"repro/internal/wire"
)

// BenchmarkAggregatorMerge measures the aggregator's merge path — the
// cost of assembling the global fleet view (per-source snapshot +
// MergeFleet's top-K selection) at fleet scale: 256 merged sources each
// carrying a 24-item retained set. This is the /fleet scrape cost and the
// per-merge latency floor behind fluct_agg_merge_ns.
func BenchmarkAggregatorMerge(b *testing.B) {
	const (
		nSources = 256
		nItems   = 24
	)
	a, err := New(Config{TopK: 20, Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	fns := []*symtab.Fn{
		{Name: "table_lookup", Base: 0x401000, Size: 0x300, ID: 0},
		{Name: "render_reply", Base: 0x401300, Size: 0x200, ID: 1},
	}
	for s := 0; s < nSources; s++ {
		items := make([]core.Item, nItems)
		for i := range items {
			begin := uint64(1_000_000*s + 10_000*i)
			items[i] = core.Item{
				ID:       uint64(i + 1),
				Core:     int32(i % 4),
				BeginTSC: begin,
				// Spread elapsed times so top-K selection does real
				// comparison work instead of early-exiting on ties.
				EndTSC: begin + uint64(3_000+(s*7+i*131)%9_000),
				Funcs: []core.FuncSpan{
					{Fn: fns[0], Samples: 5, FirstTSC: begin + 100, LastTSC: begin + 2_000},
					{Fn: fns[1], Samples: 3, FirstTSC: begin + 2_100, LastTSC: begin + 2_900},
				},
				SampleCount: 8,
				Confidence:  1,
			}
		}
		a.mu.Lock()
		a.mergeSummaryLocked("shard-a", wire.FleetSummary{
			Source:   fmt.Sprintf("src-%04d", s),
			FreqHz:   3_000_000_000,
			Sets:     5,
			MeanConf: 0.97,
			Items:    items,
		})
		a.mu.Unlock()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := a.Fleet()
		if len(v.TopSlow) != 20 || len(v.Sources) != nSources {
			b.Fatalf("merge produced %d top-K over %d sources", len(v.TopSlow), len(v.Sources))
		}
	}
}
