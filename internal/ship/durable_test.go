package ship

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/wire"
)

// setEndFrame builds a small distinguishable data frame for queue tests.
func setEndFrame(n uint64) wire.Frame {
	return wire.Frame{Type: wire.TSetEnd, Payload: wire.AppendSetEnd(nil, wire.SetEnd{Markers: n})}
}

// ackRec records what a test collector observed.
type ackRec struct {
	mu     sync.Mutex
	starts []wire.SeqStart
	nData  int
}

func (r *ackRec) dataFrames() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nData
}

func (r *ackRec) seqStarts() []wire.SeqStart {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]wire.SeqStart(nil), r.starts...)
}

// serveAcks plays a collector: handshake, then acknowledge every data
// frame cumulatively. ackAfter bounds how many data frames it acks before
// hanging up (< 0: serve until the connection dies).
func serveAcks(conn net.Conn, rec *ackRec, ackAfter int) {
	defer conn.Close()
	if _, _, err := wire.ServerHandshake(conn); err != nil {
		return
	}
	rd := (*wire.FramePool)(nil).NewReader(conn)
	var epoch, seq uint64
	acked := 0
	for {
		f, err := rd.Next()
		if err != nil {
			return
		}
		if f.Type == wire.TSeqStart {
			ss, err := wire.DecodeSeqStart(f.Payload)
			if err != nil {
				return
			}
			rec.mu.Lock()
			rec.starts = append(rec.starts, ss)
			rec.mu.Unlock()
			epoch, seq = ss.Epoch, ss.FirstSeq-1
			if wire.WriteAck(conn, wire.Ack{Epoch: epoch, Seq: seq, Applied: seq}) != nil {
				return
			}
			continue
		}
		seq++
		rec.mu.Lock()
		rec.nData++
		rec.mu.Unlock()
		if wire.WriteAck(conn, wire.Ack{Epoch: epoch, Seq: seq, Applied: seq}) != nil {
			return
		}
		acked++
		if ackAfter >= 0 && acked >= ackAfter {
			return
		}
	}
}

// TestBackoffNotResetByAcceptAndClose: a listener that completes the
// handshake and immediately hangs up must NOT collapse the reconnect
// backoff — the reset requires an answered SeqStart. The old behavior
// (reset on any successful handshake) turned such a listener into a hot
// reconnect loop at BackoffMin.
func TestBackoffNotResetByAcceptAndClose(t *testing.T) {
	var dials int32
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		atomic.AddInt32(&dials, 1)
		server, client := net.Pipe()
		go func() {
			// Malicious/broken far end: handshake, then drop the line
			// before a single frame can land.
			_, _, _ = wire.ServerHandshake(server)
			server.Close()
		}()
		return client, nil
	}
	s, err := New(Config{
		Addr: "x", Source: "hostA", Dial: dial,
		BackoffMin: 10 * time.Millisecond, BackoffMax: time.Second,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.EnqueueFrame(setEndFrame(1))

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_ = s.Run(ctx)

	// With exponential growth from 10ms (jitter ≥ 0.5×), the waits sum
	// past the 200ms window within ~6 attempts. The regression resets to
	// BackoffMin on every handshake, yielding ≥ 13 dials here.
	if n := atomic.LoadInt32(&dials); n > 9 {
		t.Fatalf("%d dials in 200ms window: backoff was reset by a connection that never answered a SeqStart", n)
	}
}

// TestJitteredWaitBounds: 10k seeded draws per nominal step — every wait
// stays within ±50% of nominal and never exceeds BackoffMax.
func TestJitteredWaitBounds(t *testing.T) {
	s, err := New(Config{
		Addr: "x", Source: "hostA",
		BackoffMin: 50 * time.Millisecond, BackoffMax: 5 * time.Second,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, nominal := range []time.Duration{
		50 * time.Millisecond, 200 * time.Millisecond, time.Second, 4 * time.Second,
	} {
		lo, hi := nominal/2, nominal+nominal/2
		if hi > s.cfg.BackoffMax {
			hi = s.cfg.BackoffMax
		}
		for i := 0; i < 10_000; i++ {
			w := s.jitteredWait(nominal)
			if w < lo || w > hi {
				t.Fatalf("draw %d at nominal %v: wait %v outside [%v, %v]", i, nominal, w, lo, hi)
			}
		}
	}
}

// TestJitterSeededFromSource: the jitter seed is the shipper's Source, so
// two shippers of one source draw the same waits and two sources do not
// reconnect in lockstep.
func TestJitterSeededFromSource(t *testing.T) {
	draws := func(source string) []time.Duration {
		s, err := New(Config{Addr: "x", Source: source, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, 64)
		for i := range out {
			out[i] = s.jitteredWait(time.Second)
		}
		return out
	}
	a := draws("hostA")
	if b := draws("hostA"); !slices.Equal(a, b) {
		t.Fatalf("two shippers of source hostA drew different waits:\n%v\n%v", a, b)
	}
	if b := draws("hostB"); slices.Equal(a, b) {
		t.Fatalf("sources hostA and hostB drew the same waits: %v", a)
	}
}

// TestBackoffDefaults: BackoffMax never defaults below BackoffMin, so a
// large configured floor is not capped under itself.
func TestBackoffDefaults(t *testing.T) {
	for _, tc := range []struct {
		name             string
		min, max         time.Duration
		wantMin, wantMax time.Duration
	}{
		{"both unset", 0, 0, 50 * time.Millisecond, 5 * time.Second},
		{"min above the default max", 10 * time.Second, 0, 10 * time.Second, 10 * time.Second},
		{"both set", time.Millisecond, 4 * time.Millisecond, time.Millisecond, 4 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Addr: "x", Source: "hostA", BackoffMin: tc.min, BackoffMax: tc.max, Registry: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			if s.cfg.BackoffMin != tc.wantMin || s.cfg.BackoffMax != tc.wantMax {
				t.Fatalf("backoff [%v, %v], want [%v, %v]", s.cfg.BackoffMin, s.cfg.BackoffMax, tc.wantMin, tc.wantMax)
			}
			if w := s.jitteredWait(s.cfg.BackoffMin); w < s.cfg.BackoffMin/2 || w > s.cfg.BackoffMax {
				t.Fatalf("wait %v at the floor outside [%v, %v]", w, s.cfg.BackoffMin/2, s.cfg.BackoffMax)
			}
		})
	}
}

// TestSpoolWriteThroughEviction: with a spool, queue overflow evicts only
// the in-memory cache copy — nothing is dropped, every frame stays
// replayable from disk.
func TestSpoolWriteThroughEviction(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{
		Addr: "x", Source: "hostA", QueueFrames: 3,
		SpoolDir: t.TempDir(), Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !s.EnqueueFrame(setEndFrame(uint64(i))) {
			t.Fatal("enqueue refused")
		}
	}
	if depth := s.QueueDepth(); depth != 3 {
		t.Fatalf("cache depth %d, want 3", depth)
	}
	if got := s.PendingFrames(); got != 5 {
		t.Fatalf("pending %d, want 5 (evicted frames must stay spooled)", got)
	}
	if drops := reg.Counter("fluct_ship_dropped_frames_total").Value(); drops != 0 {
		t.Fatalf("dropped %d, want 0: spooled overflow is eviction, not loss", drops)
	}
	if ev := reg.Counter("fluct_ship_cache_evictions_total").Value(); ev != 2 {
		t.Fatalf("evictions %d, want 2", ev)
	}
}

// TestSpooledAckedDelivery: every spooled frame is
// delivered, acknowledged, and reclaimed from disk — including cache-
// evicted frames, which must be replayed from the spool.
func TestSpooledAckedDelivery(t *testing.T) {
	reg := obs.NewRegistry()
	rec := &ackRec{}
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		server, client := net.Pipe()
		go serveAcks(server, rec, -1)
		return client, nil
	}
	s, err := New(Config{
		Addr: "x", Source: "hostA", Dial: dial, QueueFrames: 2,
		SpoolDir:   t.TempDir(),
		BackoffMin: time.Millisecond, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s.EnqueueFrame(setEndFrame(uint64(i)))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	if got := rec.dataFrames(); got != 6 {
		t.Fatalf("collector saw %d data frames, want 6", got)
	}
	starts := rec.seqStarts()
	if len(starts) != 1 || starts[0].Epoch != s.Epoch() || starts[0].FirstSeq != 1 {
		t.Fatalf("seqstarts %+v, want one {epoch %d, first 1}", starts, s.Epoch())
	}
	if got := s.PendingFrames(); got != 0 {
		t.Fatalf("pending %d after drain, want 0", got)
	}
	if got := reg.Gauge("fluct_ship_acked_seq").Value(); got != 6 {
		t.Fatalf("acked seq gauge %v, want 6", got)
	}
}

// TestSpooledResumeAfterReconnect: when the collector dies after acking a
// prefix, the next connection must announce resumption exactly at the
// acked watermark and retransmit only the unacked tail.
func TestSpooledResumeAfterReconnect(t *testing.T) {
	rec := &ackRec{}
	var s *Shipper
	var dialN int32
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		server, client := net.Pipe()
		if atomic.AddInt32(&dialN, 1) == 1 {
			go serveAcks(server, rec, 2) // ack frames 1–2, then hang up
			return client, nil
		}
		// Make the resume point deterministic: wait for both acks from
		// the first connection to be applied before offering the second.
		deadline := time.Now().Add(5 * time.Second)
		for s.PendingFrames() != 3 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("first connection's acks never applied")
			}
			time.Sleep(100 * time.Microsecond)
		}
		go serveAcks(server, rec, -1)
		return client, nil
	}
	s, err := New(Config{
		Addr: "x", Source: "hostA", Dial: dial,
		SpoolDir:   t.TempDir(),
		BackoffMin: time.Millisecond, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.EnqueueFrame(setEndFrame(uint64(i)))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	starts := rec.seqStarts()
	if len(starts) != 2 {
		t.Fatalf("%d seqstarts, want 2 (one per connection): %+v", len(starts), starts)
	}
	if starts[0].FirstSeq != 1 || starts[1].FirstSeq != 3 {
		t.Fatalf("resume points %+v, want first 1 then 3 (acked watermark + 1)", starts)
	}
	if got := s.PendingFrames(); got != 0 {
		t.Fatalf("pending %d after drain, want 0", got)
	}
}

// TestShipperRestartResume: a shipper that crashes before ever connecting
// (no Close, no Run) must leave its frames on disk; a new shipper over
// the same spool directory inherits the epoch and delivers everything.
func TestShipperRestartResume(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Addr: "x", Source: "hostA", SpoolDir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		a.EnqueueFrame(setEndFrame(uint64(i)))
	}
	epoch := a.Epoch()
	// Crash: a is abandoned — no Close, no Drain, its spool never
	// finalized. Append's flush-per-frame is what makes this safe.

	rec := &ackRec{}
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		server, client := net.Pipe()
		go serveAcks(server, rec, -1)
		return client, nil
	}
	b, err := New(Config{
		Addr: "x", Source: "hostA", Dial: dial, SpoolDir: dir,
		BackoffMin: time.Millisecond, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Epoch() != epoch {
		t.Fatalf("epoch changed across restart: %d → %d", epoch, b.Epoch())
	}
	if got := b.PendingFrames(); got != 3 {
		t.Fatalf("pending after restart %d, want 3", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- b.Run(ctx) }()
	if err := b.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	<-done

	if got := rec.dataFrames(); got != 3 {
		t.Fatalf("collector saw %d data frames, want 3", got)
	}
	if starts := rec.seqStarts(); len(starts) != 1 || starts[0].FirstSeq != 1 || starts[0].Epoch != epoch {
		t.Fatalf("seqstarts %+v, want one {epoch %d, first 1}", starts, epoch)
	}
}

// strictCollector plays a collector that keeps the numbering contract
// exactly: one durable.Watermark across connections, every connection's
// frames numbered consecutively from its SeqStart, duplicates dropped,
// every fresh frame recorded. While swallow is set it applies frames but
// never writes their acks — the lost-TAck half of a cut link.
type strictCollector struct {
	mu      sync.Mutex
	wm      durable.Watermark
	applied []uint64 // SetEnd.Markers of every fresh frame, in order
	starts  []wire.SeqStart
	swallow bool
}

func (c *strictCollector) serve(conn net.Conn, afterStart func()) {
	defer conn.Close()
	if _, _, err := wire.ServerHandshake(conn); err != nil {
		return
	}
	var cs durable.Numbering
	rd := (*wire.FramePool)(nil).NewReader(conn)
	for {
		f, err := rd.Next()
		if err != nil {
			return
		}
		if f.Type == wire.TSeqStart {
			ss, err := wire.DecodeSeqStart(f.Payload)
			if err != nil {
				return
			}
			c.mu.Lock()
			c.starts = append(c.starts, ss)
			ack, resume, _ := c.wm.Start(ss.Epoch, ss.FirstSeq)
			c.mu.Unlock()
			cs.Begin(ss.Epoch, ss.FirstSeq)
			if wire.WriteAck(conn, wire.Ack{Epoch: ss.Epoch, Seq: ack, Applied: resume}) != nil {
				return
			}
			if afterStart != nil {
				afterStart()
			}
			continue
		}
		seq, ok := cs.Take()
		end, err := wire.DecodeSetEnd(f.Payload)
		if !ok || err != nil {
			return
		}
		c.mu.Lock()
		if c.wm.Admit(cs.Epoch, seq) == durable.Fresh {
			c.applied = append(c.applied, end.Markers)
		}
		c.wm.Commit(cs.Epoch, seq)
		swallow := c.swallow
		c.mu.Unlock()
		if !swallow && wire.WriteAck(conn, wire.Ack{Epoch: cs.Epoch, Seq: seq, Applied: seq}) != nil {
			return
		}
	}
}

// TestLostAckRenumbersConnection: the collector applied and acked frames
// but the acks died with the link, so its SeqStart reply advertises a
// watermark past the shipper's FirstSeq. The collector numbers this
// connection's frames consecutively from FirstSeq, so the shipper must not
// just skip the acked frames (every later frame would be mis-numbered and
// dropped as a duplicate, and the link would never ack again): it applies
// the ack and renumbers with a SeqStart just past it.
func TestLostAckRenumbersConnection(t *testing.T) {
	reg := obs.NewRegistry()
	coll := &strictCollector{swallow: true}
	acked := func() float64 { return reg.Gauge("fluct_ship_acked_seq").Value() }
	var dialN int32
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		server, client := net.Pipe()
		switch atomic.AddInt32(&dialN, 1) {
		case 1:
			// Applies all six frames, acks none, then the link dies.
			go coll.serve(server, nil)
			go func() {
				for {
					coll.mu.Lock()
					n := len(coll.applied)
					coll.mu.Unlock()
					if n == 6 {
						server.Close()
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()
		case 2:
			coll.mu.Lock()
			coll.swallow = false
			coll.mu.Unlock()
			// Hold the data frames back until the shipper has applied the
			// overtaking ack, so its second batch is chosen after it.
			go coll.serve(server, func() {
				for acked() != 6 {
					time.Sleep(100 * time.Microsecond)
				}
			})
		default:
			go coll.serve(server, nil)
		}
		return client, nil
	}
	// A two-frame cache over a six-frame spool: the second connection's
	// first batch replays 1–4 from disk, leaving 5–6 for a second batch.
	s, err := New(Config{
		Addr: "x", Source: "hostA", Dial: dial, QueueFrames: 2,
		SpoolDir:   t.TempDir(),
		BackoffMin: time.Millisecond, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s.EnqueueFrame(setEndFrame(uint64(i)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	for acked() != 6 {
		if ctx.Err() != nil {
			t.Fatal("the SeqStart reply's watermark was never applied")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.EnqueueFrame(setEndFrame(6))
	s.EnqueueFrame(setEndFrame(7))
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("link wedged after the lost ack: %v", err)
	}
	cancel()
	<-done

	coll.mu.Lock()
	defer coll.mu.Unlock()
	if want := []uint64{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(coll.applied, want) {
		t.Fatalf("collector applied %v, want %v exactly once each, in order", coll.applied, want)
	}
	if last := coll.starts[len(coll.starts)-1]; last.FirstSeq != 7 {
		t.Fatalf("seqstarts %+v: the renumbering after the overtaking ack must open at 7", coll.starts)
	}
}
