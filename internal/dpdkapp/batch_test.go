package dpdkapp

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestBatchingProducesBatchItems(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Markers = true
	cfg.BatchSize = 3
	cfg.gapCycles = 2000 // dense traffic so batching is sensible
	res, err := Run(cfg, PaperPacketSequence(90))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 30 {
		t.Fatalf("batches = %d, want 30", len(res.Batches))
	}
	for _, b := range res.Batches {
		if len(b.Packets) != 3 {
			t.Errorf("batch %d has %d packets", b.ID, len(b.Packets))
		}
		if b.ID != b.Packets[0] {
			t.Errorf("batch ID %d != first packet %d", b.ID, b.Packets[0])
		}
	}
	a, err := core.Integrate(res.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Items) != 30 {
		t.Errorf("items = %d, want 30 (one per batch)", len(a.Items))
	}
	// All 90 packets still egress in order.
	if len(res.Latencies) != 90 {
		t.Errorf("delivered %d/90", len(res.Latencies))
	}
}

func TestBatchingHandlesPartialTail(t *testing.T) {
	cfg := smallConfig(t)
	cfg.Markers = true
	cfg.BatchSize = 4
	cfg.gapCycles = 2000
	res, err := Run(cfg, PaperPacketSequence(10))
	if err != nil {
		t.Fatal(err)
	}
	// 10 packets in batches of 4: 4+4+2.
	if len(res.Batches) != 3 {
		t.Fatalf("batches = %d, want 3", len(res.Batches))
	}
	if got := len(res.Batches[2].Packets); got != 2 {
		t.Errorf("tail batch has %d packets, want 2", got)
	}
	if len(res.Latencies) != 10 {
		t.Errorf("delivered %d/10", len(res.Latencies))
	}
}

// TestBatchEstimateRecoversPerPacketAverage: the batch-level classify
// estimate divided by the batch size approximates the mean of the unbatched
// per-packet estimates — the recovery strategy for the paper's batching
// future work.
func TestBatchEstimateRecoversPerPacketAverage(t *testing.T) {
	// Reference: unbatched per-packet estimates at the same reset value,
	// so both views carry the same sampling dilation and differ only in
	// how much first/last-sample edge bias they suffer.
	single := smallConfig(t)
	single.Markers = true
	single.Reset = 4000
	sres, err := Run(single, PaperPacketSequence(150))
	if err != nil {
		t.Fatal(err)
	}
	sa, err := core.Integrate(sres.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var singles []float64
	for i := range sa.Items {
		if fs := sa.Items[i].Func(FnClassify); fs.Estimable() {
			singles = append(singles, sa.CyclesToMicros(fs.Cycles()))
		}
	}

	batched := smallConfig(t)
	batched.Markers = true
	batched.Reset = 4000
	batched.BatchSize = 3
	batched.gapCycles = 2000
	bres, err := Run(batched, PaperPacketSequence(150))
	if err != nil {
		t.Fatal(err)
	}
	ba, err := core.Integrate(bres.Set, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var perPacket []float64
	for _, b := range bres.Batches {
		it := ba.Item(b.ID)
		if it == nil {
			t.Fatalf("batch %d missing from trace", b.ID)
		}
		if fs := it.Func(FnClassify); fs.Estimable() {
			perPacket = append(perPacket, ba.CyclesToMicros(fs.Cycles())/float64(len(b.Packets)))
		}
	}
	ms, mb := stats.Mean(singles), stats.Mean(perPacket)
	// Both views carry sampling biases of opposite sign (singles suffer
	// estimability selection on a ~1 µs function, batches lose edge
	// intervals over a 3x span), so the recovery claim is a 2x band, not
	// equality. What batching buys is measured exactly: 2 markers per
	// batch instead of 2 per packet.
	if mb < ms*0.5 || mb > ms*2 {
		t.Errorf("batched per-packet mean %.2f vs singles %.2f us; outside 2x band", mb, ms)
	}
	if got, want := len(bres.Set.Markers), 2*len(bres.Batches); got != want {
		t.Errorf("markers = %d, want %d (two per batch)", got, want)
	}
	if len(bres.Set.Markers) >= len(sres.Set.Markers) {
		t.Error("batching did not reduce instrumentation volume")
	}
	// What batching loses: per-packet-type resolution. Each batch holds
	// one A, one B and one C, so the batch view cannot separate them —
	// exactly why the paper calls per-item IDs under batching future work.
}
