package durable

import (
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/wire"
)

// orderedSource is a reference stream state for the receive loop: Hand
// admits and applies under one apply lock, taken before the watermark's,
// so the source applies in admission order, and the test can hold the
// apply of chosen numbers on a gate inside that lock. Every frame earns an
// ack. It records the invariants the loop must keep: no checkpoint may
// hold a settled number whose frames are not all applied, and no ack may
// cover a number whose frames are not all applied.
type orderedSource struct {
	apply    sync.Mutex // held from Admit through the apply
	mu       sync.Mutex // guards everything below
	wm       Watermark
	gates    map[uint64]chan struct{} // apply of the number waits on it
	applied  []uint64
	problems []string

	// events reports where each connection's loop got to with a frame:
	// "hand 2" (entering Hand), "held 2" (admitted, its apply waiting on
	// its gate), "ack 2" (in Acking). Its buffer holds every event a test
	// emits, so no loop blocks on it after the test stops reading.
	events chan string
}

func newOrderedSource() *orderedSource {
	return &orderedSource{gates: map[uint64]chan struct{}{}, events: make(chan string, 64)}
}

// unappliedLocked names the first admitted number ≤ seq whose apply has not
// returned, or 0.
func (s *orderedSource) unappliedLocked(seq uint64) uint64 {
	for n := uint64(1); n <= seq && n <= s.wm.Applied; n++ {
		if !slices.Contains(s.applied, n) {
			return n
		}
	}
	return 0
}

func (s *orderedSource) checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.unappliedLocked(s.wm.Settled); n != 0 {
		s.problems = append(s.problems, fmt.Sprintf("snapshot settled at %d before %d applied", s.wm.Settled, n))
	}
	return nil
}

// orderedConn is one connection's Stream over an orderedSource.
type orderedConn struct{ s *orderedSource }

func (c orderedConn) Start(ss wire.SeqStart) (acked, resume uint64, ok bool) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	acked, resume, _ = c.s.wm.Start(ss.Epoch, ss.FirstSeq)
	return acked, resume, true
}

func (c orderedConn) Hand(f *Frame) (ack, ok bool) {
	s := c.s
	f.Release()
	s.events <- fmt.Sprintf("hand %d", f.Seq)
	s.apply.Lock()
	defer s.apply.Unlock()
	s.mu.Lock()
	adm := f.Admit(&s.wm)
	gate := s.gates[f.Seq]
	s.mu.Unlock()
	if adm != Fresh {
		return true, true
	}
	if gate != nil {
		s.events <- fmt.Sprintf("held %d", f.Seq)
		<-gate
	}
	s.mu.Lock()
	s.applied = append(s.applied, f.Seq)
	s.wm.Settle(f.Epoch, f.Seq)
	s.mu.Unlock()
	return true, true
}

func (c orderedConn) Sync() (sync.Locker, *Watermark) { return &c.s.mu, &c.s.wm }

func (c orderedConn) Acking(f *Frame) error {
	s := c.s
	s.mu.Lock()
	if n := s.unappliedLocked(f.Seq); n != 0 {
		s.problems = append(s.problems, fmt.Sprintf("ack of %d before %d applied", f.Seq, n))
	}
	s.mu.Unlock()
	s.events <- fmt.Sprintf("ack %d", f.Seq)
	return nil
}

func (c orderedConn) End(lost error) bool { return lost != nil }

// pipeClient opens a connection to r over net.Pipe and completes the
// handshake.
func pipeClient(t *testing.T, r *Receiver, s *orderedSource) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	go r.Run(server, func(string) Stream { return orderedConn{s} })
	t.Cleanup(func() { client.Close() })
	if _, err := wire.ClientHandshake(client, "s"); err != nil {
		t.Fatal(err)
	}
	return client
}

func send(t *testing.T, conn net.Conn, typ wire.Type, payload []byte) {
	t.Helper()
	if err := wire.WriteFrame(conn, wire.Frame{Type: typ, Payload: payload}); err != nil {
		t.Fatal(err)
	}
}

// seqStart opens conn's numbering at (epoch, first) and returns the reply.
func seqStart(t *testing.T, conn net.Conn, epoch, first uint64) wire.Ack {
	t.Helper()
	send(t, conn, wire.TSeqStart, wire.AppendSeqStart(nil, wire.SeqStart{Epoch: epoch, FirstSeq: first}))
	return readAck(t, conn)
}

func readAck(t *testing.T, conn net.Conn) wire.Ack {
	t.Helper()
	f, err := (*wire.FramePool)(nil).NewReader(conn).Next()
	if err != nil || f.Type != wire.TAck {
		t.Fatalf("read %s frame (err %v), want an ack", f.Type, err)
	}
	a, err := wire.DecodeAck(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestReceiveWaitsForApply: connection A's frame N is admitted but its apply
// is held. A reconnected connection B is told to resume past N and sends
// N+1; a third connection C sends a duplicate of N. Both reach Hand while
// N's apply is pending, and neither may be snapshotted or acked before it
// returns; then every frame applies in number order and each connection
// gets its ack.
func TestReceiveWaitsForApply(t *testing.T) {
	s := newOrderedSource()
	r := &Receiver{Checkpoint: s.checkpoint, Counters: Counters{Duplicates: obs.NewRegistry().Counter("dups")}}
	const epoch, n = 3, 1
	gate := make(chan struct{})
	s.gates[n] = gate

	expect := func(want ...string) {
		t.Helper()
		var got []string
		for range want {
			got = append(got, <-s.events)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("loop went %q, want %q", got, want)
		}
	}
	a := pipeClient(t, r, s)
	seqStart(t, a, epoch, n)
	send(t, a, wire.TFleetSummary, []byte("N"))
	expect("hand 1", "held 1")

	b := pipeClient(t, r, s)
	if got := seqStart(t, b, epoch, n); got.Seq != 0 || got.Applied != n {
		t.Fatalf("reconnect reply %+v, want durable line 0 and resume %d", got, n)
	}
	seqStart(t, b, epoch, n+1)
	send(t, b, wire.TFleetSummary, []byte("N+1"))
	expect("hand 2")

	c := pipeClient(t, r, s)
	seqStart(t, c, epoch, n)
	send(t, c, wire.TFleetSummary, []byte("N again"))
	expect("hand 1")

	s.mu.Lock()
	if len(s.applied) != 0 || s.wm.Settled != 0 || s.wm.Acked != 0 || s.wm.Applied != n {
		t.Fatalf("with %d held: applied %v, watermark %+v", n, s.applied, s.wm)
	}
	s.mu.Unlock()
	close(gate)
	for _, x := range []struct {
		conn net.Conn
		seq  uint64
	}{{a, n}, {b, n + 1}, {c, n}} {
		if got := readAck(t, x.conn); got != (wire.Ack{Epoch: epoch, Seq: x.seq, Applied: x.seq}) {
			t.Fatalf("ack %+v, want %d", got, x.seq)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !slices.Equal(s.applied, []uint64{n, n + 1}) {
		t.Fatalf("applied %v, want %d then %d", s.applied, n, n+1)
	}
	if len(s.problems) > 0 {
		t.Fatal(s.problems)
	}
	if s.wm.Acked != n+1 || r.Duplicates.Value() != 1 {
		t.Fatalf("watermark %+v and %d duplicates, want acked %d and 1 duplicate", s.wm, r.Duplicates.Value(), n+1)
	}
}
