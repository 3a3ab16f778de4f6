package ship

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/sim"
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

// record is one decoded record of a shipped set: the kind says which of the
// two fields is set.
type record struct {
	kind wire.Type
	m    trace.Marker
	s    pmu.Sample
}

// shippedSet is a shipper's queue decoded back into what ShipSet put there.
type shippedSet struct {
	types []wire.Type // every frame's, in order
	sizes []int       // every frame's encoded size
	recs  []record    // the TRecords frames' records, in frame order
	end   wire.SetEnd
}

// decodeQueue reads back everything the shipper holds.
func decodeQueue(t *testing.T, s *Shipper) shippedSet {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out shippedSet
	for _, q := range s.queue {
		f, rest, err := wire.ParseFrameView(q.bytes)
		if err != nil || len(rest) != 0 {
			t.Fatalf("queued frame %d: %v (%d bytes over)", q.seq, err, len(rest))
		}
		if q.buf != nil && q.buf.Cap() != wire.MinBufBytes {
			t.Fatalf("queued %s frame %d sits in a %d-byte buffer", f.Type, q.seq, q.buf.Cap())
		}
		out.types = append(out.types, f.Type)
		out.sizes = append(out.sizes, len(q.bytes))
		switch f.Type {
		case wire.TRecords:
			it := wire.IterRecords(f.Payload)
			var m trace.Marker
			var sm pmu.Sample
			for kind := it.Next(&m, &sm); kind != 0; kind = it.Next(&m, &sm) {
				if kind == wire.TMarkers {
					out.recs = append(out.recs, record{kind: kind, m: m})
				} else {
					out.recs = append(out.recs, record{kind: kind, s: sm})
				}
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
		case wire.TSetEnd:
			if out.end, err = wire.DecodeSetEnd(f.Payload); err != nil {
				t.Fatal(err)
			}
		case wire.TSymtab:
		default:
			t.Fatalf("ShipSet queued a %s frame", f.Type)
		}
	}
	return out
}

// feedOrder is the set's records in the order ShipSet must send them: per
// core by timestamp, markers before samples at equal timestamps.
func feedOrder(set *trace.Set) []record {
	var recs []record
	for _, m := range set.Markers {
		recs = append(recs, record{kind: wire.TMarkers, m: m})
	}
	for _, sm := range set.Samples {
		recs = append(recs, record{kind: wire.TSamples, s: sm})
	}
	tsc := func(r record) uint64 { return r.m.TSC + r.s.TSC }
	slices.SortStableFunc(recs, func(a, b record) int {
		return cmp.Or(cmp.Compare(a.m.Core+a.s.Core, b.m.Core+b.s.Core), cmp.Compare(tsc(a), tsc(b)))
	})
	return recs
}

// TestShipSetFrameOrder: ShipSet must produce symtab → records in per-core
// feed order → setend, with the marker/sample interleaving of the local feed
// preserved inside the mixed frame and across frame boundaries — whether
// the set's streams arrive in (core, timestamp) order or reversed.
func TestShipSetFrameOrder(t *testing.T) {
	for _, c := range []struct {
		batch    int
		reversed bool
	}{{0, false}, {2, false}, {0, true}, {2, true}} {
		batch := c.batch
		s, err := New(Config{Addr: "x", Source: "hostA", BatchRecords: batch, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		set := testSet(t)
		if c.reversed {
			slices.Reverse(set.Markers)
			slices.Reverse(set.Samples)
		}
		if err := s.ShipSet(set); err != nil {
			t.Fatal(err)
		}
		got := decodeQueue(t, s)
		want := []wire.Type{wire.TSymtab, wire.TRecords, wire.TSetEnd}
		if batch == 2 {
			want = []wire.Type{wire.TSymtab, wire.TRecords, wire.TRecords, wire.TRecords, wire.TRecords, wire.TSetEnd}
		}
		if !slices.Equal(got.types, want) {
			t.Fatalf("BatchRecords %d: frame types %v, want %v", batch, got.types, want)
		}
		if got.end.Markers != 4 || got.end.Samples != 3 {
			t.Fatalf("setend declared %+v", got.end)
		}
		// Core 0 first — begin(100), its samples (300, 500), end(900) — then
		// core 1: begin(150), sample(400), end(600).
		var order []uint64
		for _, r := range got.recs {
			order = append(order, r.m.TSC+r.s.TSC)
		}
		if !slices.Equal(order, []uint64{100, 300, 500, 900, 150, 400, 600}) {
			t.Fatalf("BatchRecords %d: feed order %v", batch, order)
		}
		if !reflect.DeepEqual(got.recs, feedOrder(set)) {
			t.Fatalf("BatchRecords %d: records changed in flight:\n%+v", batch, got.recs)
		}
	}
}

// bulkSet is a fleet_bulk-shaped set: 2,000 items over two simulated cores,
// three traced functions an item, a PEBS sample every 1,000 uops — two
// markers and about eight samples an item, ≈21 k records.
func bulkSet(t testing.TB) *trace.Set {
	t.Helper()
	const cores, items = 2, 2000
	m := sim.MustNew(sim.Config{Cores: cores})
	fns := []*symtab.Fn{m.Syms.MustRegister("parse", 2048), m.Syms.MustRegister("lookup", 4096), m.Syms.MustRegister("render", 2048)}
	log := trace.NewMarkerLog(cores, 0)
	pebs := make([]*pmu.PEBS, cores)
	for ci := range pebs {
		pebs[ci] = pmu.NewPEBS(pmu.PEBSConfig{DoubleBuffer: true})
		m.Core(ci).PMU.MustProgram(pmu.UopsRetired, 1000, pebs[ci])
		first := uint64(ci * items / cores)
		m.MustSpawn(ci, func(c *sim.Core) {
			for id := first; id < first+items/cores; id++ {
				log.Mark(c, id, trace.ItemBegin)
				for i, fn := range fns {
					c.Call(fn, func() { c.Exec(uint64(1500 + 1000*i + int(id%7)*40)) })
				}
				log.Mark(c, id, trace.ItemEnd)
				c.Exec(300)
			}
		})
	}
	m.Wait()
	var samples []pmu.Sample
	for _, p := range pebs {
		samples = append(samples, p.Samples()...)
	}
	return trace.NewSet(m, log, samples)
}

// TestShipSetFillsFrames: a frame ends where its 4 KiB buffer is full, not
// where the record kind flips. A fleet_bulk-shaped set — which flips kind
// every few records — ships in a few dozen well-filled frames that decode
// back to exactly the feed; a long run of one kind, with registers, splits
// across frames of the same class instead of growing one.
func TestShipSetFillsFrames(t *testing.T) {
	regs := &trace.Set{FreqHz: 2_000_000_000, Syms: symtab.NewTable()}
	for i := 0; i < 2500; i++ {
		sm := pmu.Sample{TSC: uint64(1000 + 37*i), IP: 0x400000 + uint64(i), Event: pmu.UopsRetired, Regs: new([pmu.NumRegs]uint64)}
		for r := range sm.Regs {
			sm.Regs[r] = uint64(i+1) << (4 * r)
		}
		regs.Samples = append(regs.Samples, sm)
	}
	for _, tc := range []struct {
		name      string
		set       *trace.Set
		maxFrames int
	}{
		{"bulk", bulkSet(t), 60},
		{"one-kind-run", regs, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Addr: "x", Source: "hostA", Registry: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.ShipSet(tc.set); err != nil {
				t.Fatal(err)
			}
			got := decodeQueue(t, s)
			n := len(got.types)
			t.Logf("%d records in %d frames", len(got.recs), n)
			if n > tc.maxFrames || n < 4 {
				t.Fatalf("%d records shipped in %d frames, want 4..%d", len(got.recs), n, tc.maxFrames)
			}
			if got.types[0] != wire.TSymtab || got.types[n-1] != wire.TSetEnd {
				t.Fatalf("frame types %v: want symtab first, setend last", got.types)
			}
			for i := 1; i < n-1; i++ {
				if got.types[i] != wire.TRecords {
					t.Fatalf("frame %d of the set is a %s frame", i, got.types[i])
				}
				if got.sizes[i] > wire.MinBufBytes {
					t.Fatalf("data frame %d is %d bytes, over the smallest pool class", i, got.sizes[i])
				}
				if i < n-2 && got.sizes[i] < wire.MinBufBytes*3/4 {
					t.Fatalf("data frame %d of %d ended %d bytes in: under three quarters full", i, n-2, got.sizes[i])
				}
			}
			if !reflect.DeepEqual(got.recs, feedOrder(tc.set)) {
				t.Fatal("the frames do not decode back to the per-core timestamp feed")
			}
			if got.end.Markers != uint64(len(tc.set.Markers)) || got.end.Samples != uint64(len(tc.set.Samples)) {
				t.Fatalf("setend declared %+v for %d markers, %d samples", got.end, len(tc.set.Markers), len(tc.set.Samples))
			}
		})
	}
}

// TestQueuedFrameHoldsItsOwnSize: a frame waiting for its ack must cost
// what it weighs, not the pool class it was encoded in — N SetEnds against
// an unreachable collector hold N × tens of bytes, not N × 4 KiB.
func TestQueuedFrameHoldsItsOwnSize(t *testing.T) {
	s, err := New(Config{Addr: "x", Source: "hostA", Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if !s.EnqueueFrame(wire.Frame{Type: wire.TSetEnd, Payload: wire.AppendSetEnd(nil, wire.SetEnd{Markers: uint64(i)})}) {
			t.Fatal("enqueue refused")
		}
	}
	// A frame that fills its class keeps the buffer it was built in.
	if !s.EnqueueFrame(wire.Frame{Type: wire.TFleetSummary, Payload: make([]byte, 3000)}) {
		t.Fatal("enqueue refused")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	held := 0
	for _, q := range s.queue[:n] {
		held += cap(q.bytes)
		if q.buf != nil {
			held += q.buf.Cap()
		}
	}
	if held > n*32 {
		t.Fatalf("%d SetEnd frames hold %d bytes (%d each), want at most 32 each", n, held, held/n)
	}
	if last := s.queue[n]; last.buf == nil || &last.bytes[0] != &last.buf.Bytes()[0] {
		t.Fatal("a frame filling most of its class was copied out of its pooled buffer")
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
	if s.EnqueueFrame(wire.Frame{Type: wire.TRecords, Payload: make([]byte, wire.MaxFrameBytes)}) {
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
	s, err := New(Config{Addr: "x", Source: "hostA", SpoolDir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// The opening frame is one byte short of the spool's 1 MiB segment; the
	// set's symtab then fills the segment, so the set's next frame needs a
	// new segment file. (Were the segment bound other than 1 MiB, the set
	// would fail at a different frame, or not at all, and the checks below
	// would say so.)
	const segmentBytes = 1 << 20
	opening := wire.Frame{Type: wire.TRecords, Payload: make([]byte, segmentBytes-1-wire.FrameOverhead)}
	if !s.EnqueueFrame(opening) {
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
