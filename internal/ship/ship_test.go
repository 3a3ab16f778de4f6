package ship

import (
	"bytes"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/wire"
)

func testSet(t *testing.T) *trace.Set {
	t.Helper()
	tab := symtab.NewTable()
	f := tab.MustRegister("f", 4096)
	return &trace.Set{
		FreqHz: 2_000_000_000,
		Syms:   tab,
		Markers: []trace.Marker{
			{Item: 1, TSC: 100, Core: 0, Kind: trace.ItemBegin},
			{Item: 1, TSC: 900, Core: 0, Kind: trace.ItemEnd},
			{Item: 2, TSC: 150, Core: 1, Kind: trace.ItemBegin},
			{Item: 2, TSC: 600, Core: 1, Kind: trace.ItemEnd},
		},
		Samples: []pmu.Sample{
			{TSC: 300, IP: f.Base + 8, Core: 0, Event: pmu.UopsRetired},
			{TSC: 500, IP: f.Base + 16, Core: 0, Event: pmu.UopsRetired},
			{TSC: 400, IP: f.Base + 24, Core: 1, Event: pmu.UopsRetired},
		},
	}
}

// TestShipSetFrameOrder: ShipSet must produce symtab → per-core-ordered
// batches → setend, with the marker/sample interleaving of the local feed
// order preserved across batch boundaries.
func TestShipSetFrameOrder(t *testing.T) {
	s, err := New(Config{Addr: "x", Source: "hostA", Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	set := testSet(t)
	if err := s.ShipSet(set); err != nil {
		t.Fatal(err)
	}

	// Decode the queue back into an event sequence.
	var stream bytes.Buffer
	s.mu.Lock()
	for _, q := range s.queue {
		stream.Write(q.bytes)
	}
	s.mu.Unlock()

	var types []wire.Type
	var markers []trace.Marker
	var samples []pmu.Sample
	var end wire.SetEnd
	var buf []byte
	for stream.Len() > 0 {
		var f wire.Frame
		f, buf, err = wire.ReadFrame(&stream, buf)
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, f.Type)
		switch f.Type {
		case wire.TMarkers:
			if err := wire.DecodeMarkers(f.Payload, func(m trace.Marker) error { markers = append(markers, m); return nil }); err != nil {
				t.Fatal(err)
			}
		case wire.TSamples:
			if err := wire.DecodeSamples(f.Payload, func(sm pmu.Sample) error { samples = append(samples, sm); return nil }); err != nil {
				t.Fatal(err)
			}
		case wire.TSetEnd:
			if end, err = wire.DecodeSetEnd(f.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	if types[0] != wire.TSymtab || types[len(types)-1] != wire.TSetEnd {
		t.Fatalf("frame types %v: want symtab first, setend last", types)
	}
	if end.Markers != 4 || end.Samples != 3 {
		t.Fatalf("setend declared %+v", end)
	}
	if len(markers) != 4 || len(samples) != 3 {
		t.Fatalf("decoded %d markers, %d samples", len(markers), len(samples))
	}
	// Per-core feed order: core 0 first (begin, its samples, end), then core 1.
	if markers[0].Core != 0 || markers[1].Core != 0 || markers[2].Core != 1 {
		t.Fatalf("marker core order %v", markers)
	}
	if samples[0].Core != 0 || samples[1].Core != 0 || samples[2].Core != 1 {
		t.Fatalf("sample core order %v", samples)
	}
	// Within core 0: begin(100) ≤ sample(300) ≤ sample(500) ≤ end(900).
	if markers[0].Kind != trace.ItemBegin || markers[1].Kind != trace.ItemEnd {
		t.Fatalf("core 0 marker kinds %v", markers[:2])
	}
}

// frameSeqs returns the queue's sequence numbers.
func frameSeqs(s *Shipper) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs := make([]uint64, len(s.queue))
	for i, q := range s.queue {
		seqs[i] = q.seq
	}
	return seqs
}

// TestAdmissionLine: a shipper with nowhere to spill takes a set whole or
// not at all. Past QueueFrames held frames the next set — and a frame
// shipped on its own — is refused before anything is enqueued, counted, and
// nothing already held is evicted to make room.
func TestAdmissionLine(t *testing.T) {
	reg := obs.NewRegistry()
	probe, err := New(Config{Addr: "x", Source: "hostA", Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.ShipSet(testSet(t)); err != nil {
		t.Fatal(err)
	}
	perSet := probe.QueueDepth()

	s, err := New(Config{Addr: "x", Source: "hostA", QueueFrames: perSet, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// At the line is not past it: the second set is let in, whole.
	for i := 0; i < 2; i++ {
		if err := s.ShipSet(testSet(t)); err != nil {
			t.Fatalf("set %d: %v", i+1, err)
		}
	}
	if err := s.ShipSet(testSet(t)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third set: %v, want ErrQueueFull", err)
	}
	if s.EnqueueFrame(wire.Frame{Type: wire.TSetEnd, Payload: wire.AppendSetEnd(nil, wire.SetEnd{})}) {
		t.Fatal("a standalone frame was let in past the admission line")
	}
	if drops := reg.Counter("fluct_ship_dropped_frames_total").Value(); drops != 2 {
		t.Fatalf("dropped %d, want 2 (one refused set, one refused frame)", drops)
	}
	seqs := frameSeqs(s)
	if len(seqs) != 2*perSet || s.PendingFrames() != uint64(2*perSet) {
		t.Fatalf("holding %d frames (%d pending), want the two admitted sets' %d", len(seqs), s.PendingFrames(), 2*perSet)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("queue[%d] has seq %d: the window must be 1..%d with nothing evicted", i, seq, len(seqs))
		}
	}
}

// TestUnshippableFrameRefused: a frame too large to frame is refused and
// counted, not reported as taken.
func TestUnshippableFrameRefused(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{Addr: "x", Source: "hostA", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if s.EnqueueFrame(wire.Frame{Type: wire.TMarkers, Payload: make([]byte, wire.MaxFrameBytes)}) {
		t.Fatal("an oversized frame was reported as enqueued")
	}
	if s.QueueDepth() != 0 || reg.Counter("fluct_ship_dropped_frames_total").Value() != 1 {
		t.Fatalf("depth %d dropped %d, want 0 and 1", s.QueueDepth(), reg.Counter("fluct_ship_dropped_frames_total").Value())
	}
}

// TestSpoolFailureStopsSet: when the spool stops taking frames, the frame
// that failed is refused and counted (fluct_ship_spool_errors_total), a set
// it hits mid-way stops there with the error instead of going out thinner,
// and the window stays contiguous by seq across the failure.
func TestSpoolFailureStopsSet(t *testing.T) {
	reg := obs.NewRegistry()
	dir := filepath.Join(t.TempDir(), "spool")
	// A 16-byte segment holds the opening frame; the set's symtab then fills
	// it, so the set's next frame needs a new segment file.
	s, err := New(Config{Addr: "x", Source: "hostA", SpoolDir: dir, SpoolSegmentBytes: 16, SpoolEpoch: 7, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !s.EnqueueFrame(wire.Frame{Type: wire.TSetEnd, Payload: wire.AppendSetEnd(nil, wire.SetEnd{})}) {
		t.Fatal("enqueue refused")
	}
	// The directory goes away under the spool. The open segment still takes
	// the symtab; no new segment can be created for what follows it.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.ShipSet(testSet(t)); err == nil {
		t.Fatal("ShipSet reported success for a set the spool cut short")
	}
	if got := reg.Counter("fluct_ship_spool_errors_total").Value(); got != 1 {
		t.Fatalf("spool errors %d, want 1 (the set must stop at the first failure)", got)
	}
	if got := reg.Counter("fluct_ship_sets_total").Value(); got != 0 {
		t.Fatalf("sets shipped %d, want 0", got)
	}
	if seqs := frameSeqs(s); !slices.Equal(seqs, []uint64{1, 2}) {
		t.Fatalf("window %v, want [1 2]: the opening frame and the symtab, nothing after the failure", seqs)
	}
	// The disk heals: numbering carries on where the last stored frame left it.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if !s.EnqueueFrame(wire.Frame{Type: wire.TSetEnd, Payload: wire.AppendSetEnd(nil, wire.SetEnd{})}) {
		t.Fatal("enqueue refused after the disk healed")
	}
	if seqs := frameSeqs(s); !slices.Equal(seqs, []uint64{1, 2, 3}) {
		t.Fatalf("window %v after healing, want [1 2 3]", seqs)
	}
}

// TestRunReconnectsWithBackoff: a dial that fails twice then succeeds must
// be retried, counted, and end with the queue drained.
func TestRunReconnectsWithBackoff(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	attempts := 0
	server, client := net.Pipe()
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		mu.Lock()
		defer mu.Unlock()
		attempts++
		if attempts <= 2 {
			return nil, errors.New("refused")
		}
		return client, nil
	}
	s, err := New(Config{
		Addr: "x", Source: "hostA", Dial: dial,
		BackoffMin: time.Millisecond, BackoffMax: 4 * time.Millisecond,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.EnqueueFrame(wire.Frame{Type: wire.TSetEnd, Payload: wire.AppendSetEnd(nil, wire.SetEnd{})})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go serveAcks(server, &ackRec{}, -1)
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done
	if got := reg.Counter("fluct_ship_reconnects_total").Value(); got < 2 {
		t.Fatalf("reconnects = %d, want ≥ 2", got)
	}
	if got := reg.Counter("fluct_ship_frames_sent_total").Value(); got != 1 {
		t.Fatalf("frames sent = %d, want 1", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Addr: "x"}); err == nil {
		t.Fatal("accepted empty source")
	}
	if _, err := New(Config{Addr: "x", Source: string(bytes.Repeat([]byte{'s'}, 300))}); err == nil {
		t.Fatal("accepted oversized source")
	}
}
