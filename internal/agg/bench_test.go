package agg

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/symtab"
	"repro/internal/wire"
)

// syntheticSummary is source s's summary as a shard would ship it, with an
// nItems-item retained set, and its payload.
func syntheticSummary(tb testing.TB, s, nItems int) (wire.FleetSummary, []byte) {
	tb.Helper()
	fns := []*symtab.Fn{
		{Name: "table_lookup", Base: 0x401000, Size: 0x300, ID: 0},
		{Name: "render_reply", Base: 0x401300, Size: 0x200, ID: 1},
	}
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
	fs := wire.FleetSummary{
		Source:   fmt.Sprintf("src-%04d", s),
		FreqHz:   3_000_000_000,
		Sets:     5,
		MeanConf: 0.97,
		Items:    items,
	}
	payload, err := wire.AppendFleetSummary(nil, fs)
	if err != nil {
		tb.Fatal(err)
	}
	return fs, payload
}

// mergeSynthetic merges nSources synthetic sources into a, each carrying
// an nItems-item retained set, through the live merge path with the
// payloads a shard would have shipped.
func mergeSynthetic(tb testing.TB, a *Aggregator, nSources, nItems int) {
	tb.Helper()
	for s := 0; s < nSources; s++ {
		_, payload := syntheticSummary(tb, s, nItems)
		fs, items, err := wire.CheckFleetSummary(payload)
		if err != nil {
			tb.Fatal(err)
		}
		a.mu.Lock()
		a.mergeSummaryLocked("shard-a", fs, items, payload)
		a.mu.Unlock()
	}
}

// handStream opens shard-a's stream on a fresh aggregator at epoch 1, as a
// SeqStart would, for driving Hand directly.
func handStream(tb testing.TB) *shardStream {
	tb.Helper()
	a, err := New(Config{Registry: obs.NewRegistry()})
	if err != nil {
		tb.Fatal(err)
	}
	wm := &durable.Watermark{}
	wm.Start(1, 1)
	a.shards["shard-a"] = wm
	return &shardStream{a: a, id: "shard-a", wm: wm}
}

// hand passes payload to s as the summary frame numbered seq and fails
// unless it merges and earns an ack.
func hand(tb testing.TB, s *shardStream, payload []byte, seq uint64) {
	f := &durable.Frame{FrameView: wire.FrameView{Type: wire.TFleetSummary, Payload: payload}, Epoch: 1, Seq: seq}
	if ack, ok := s.Hand(f); !ack || !ok || s.wm.Settled != seq {
		tb.Fatalf("frame %d: ack %v ok %v, settled %d", seq, ack, ok, s.wm.Settled)
	}
}

// BenchmarkAggregatorHand measures the delivery side of a merge: one
// 2,000-item summary frame through shardStream.Hand (check, copy out of
// the frame, merge, settle), with no checkpoint configured.
func BenchmarkAggregatorHand(b *testing.B) {
	s := handStream(b)
	_, payload := syntheticSummary(b, 0, 2000)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hand(b, s, payload, uint64(i+1))
	}
}

// BenchmarkAggregatorFleet measures the read side of the merged view —
// Fleet(): per-source snapshot, each source's items decoded from its
// payload, and MergeFleet's top-K selection — at fleet scale: 256 merged
// sources each carrying a 24-item retained set. This is the /fleet scrape
// cost, and what fluct_agg_merge_ns records.
func BenchmarkAggregatorFleet(b *testing.B) {
	const nSources = 256
	a, err := New(Config{TopK: 20, Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	mergeSynthetic(b, a, nSources, 24)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := a.Fleet()
		if len(v.TopSlow) != 20 || len(v.Sources) != nSources {
			b.Fatalf("merge produced %d top-K over %d sources", len(v.TopSlow), len(v.Sources))
		}
	}
}

// BenchmarkAggregatorHealth measures the /healthz read at the shape of
// BenchmarkAggregatorFleet: it counts degraded sources and active verdicts
// and decodes no item.
func BenchmarkAggregatorHealth(b *testing.B) {
	a, err := New(Config{TopK: 20, Registry: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	mergeSynthetic(b, a, 256, 24)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := a.Health(); !h.OK {
			b.Fatalf("health %+v", h)
		}
	}
}

// BenchmarkAggregatorCheckpoint measures the checkpoint written before
// every ack, at the two fleet shapes the end-to-end benchmark runs: many
// small rows (130 sources × 16 items) and few large ones (2 × 2,000).
// Each op includes the fsync of durable.WriteFile.
func BenchmarkAggregatorCheckpoint(b *testing.B) {
	for _, shape := range []struct{ sources, items int }{{130, 16}, {2, 2000}} {
		b.Run(fmt.Sprintf("sources=%d/items=%d", shape.sources, shape.items), func(b *testing.B) {
			a, err := New(Config{CheckpointPath: b.TempDir() + "/agg.json", Registry: obs.NewRegistry()})
			if err != nil {
				b.Fatal(err)
			}
			mergeSynthetic(b, a, shape.sources, shape.items)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
