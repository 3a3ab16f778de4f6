package durable

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/wire"
)

// orderedSource is a reference stream state for the receive loop: it admits
// and enqueues under one lock, applies on one goroutine in admission order,
// and lets the test hold the apply of chosen numbers on a gate. Every
// frame earns an ack. It records the invariants the loop must keep: no
// checkpoint may hold a settled number whose frames are not all applied,
// and no ack may cover a number whose frames are not all applied.
type orderedSource struct {
	mu       sync.Mutex
	cond     *sync.Cond
	wm       Watermark
	queue    []uint64
	done     map[uint64]chan struct{} // closed once the frame's apply returned
	gates    map[uint64]chan struct{} // apply of the number waits on it
	applied  []uint64
	problems []string
	stopped  bool

	// events reports where each connection's loop got to with a frame:
	// "hand 2", "wait 2" (blocked in applied), "ack 2" (in Acking). Its
	// buffer holds every event a test emits, so no loop blocks on it after
	// the test stops reading.
	events chan string
}

func newOrderedSource(t *testing.T) *orderedSource {
	s := &orderedSource{
		done:   map[uint64]chan struct{}{},
		gates:  map[uint64]chan struct{}{},
		events: make(chan string, 64),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.run()
	t.Cleanup(func() {
		s.mu.Lock()
		s.stopped = true
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	return s
}

// run applies queued frames in order, each after its gate (if any) opens,
// until the test ends.
func (s *orderedSource) run() {
	s.mu.Lock()
	for {
		for len(s.queue) == 0 && !s.stopped {
			s.cond.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		seq := s.queue[0]
		s.queue = s.queue[1:]
		gate := s.gates[seq]
		s.mu.Unlock()
		if gate != nil {
			<-gate
		}
		s.mu.Lock()
		s.applied = append(s.applied, seq)
		s.wm.Settle(s.wm.Epoch, seq)
		close(s.done[seq])
	}
}

// unappliedLocked names the first admitted number ≤ seq whose apply has not
// returned, or 0.
func (s *orderedSource) unappliedLocked(seq uint64) uint64 {
	for n := uint64(1); n <= seq && n <= s.wm.Applied; n++ {
		if ch := s.done[n]; ch != nil {
			select {
			case <-ch:
				continue
			default:
			}
		}
		return n
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

func (c orderedConn) Hand(f *Frame) (func() error, bool) {
	s := c.s
	s.mu.Lock()
	var wait chan struct{}
	if f.Admit(&s.wm) == Fresh {
		wait = make(chan struct{})
		s.done[f.Seq] = wait
		s.queue = append(s.queue, f.Seq)
		s.cond.Signal()
	} else {
		// A duplicate waits for everything admitted so far.
		wait = s.done[s.wm.Applied]
	}
	s.mu.Unlock()
	f.Release()
	seq := f.Seq
	s.events <- fmt.Sprintf("hand %d", seq)
	return func() error {
		s.events <- fmt.Sprintf("wait %d", seq)
		<-wait
		return nil
	}, true
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

// settle reads events until a loop blocks in applied or reaches Acking,
// and returns them.
func settle(s *orderedSource) []string {
	var seen []string
	for ev := range s.events {
		seen = append(seen, ev)
		if !strings.HasPrefix(ev, "hand") {
			return seen
		}
	}
	return nil
}

// TestReceiveWaitsForApply: connection A's frame N is admitted but its apply
// is held. A reconnected connection B is told to resume past N and sends
// N+1; a third connection C sends a duplicate of N. Both reach the loop
// while N's apply is pending, and neither may be snapshotted or acked
// before it returns; then every frame applies in number order and each
// connection gets its ack.
func TestReceiveWaitsForApply(t *testing.T) {
	s := newOrderedSource(t)
	r := &Receiver{Checkpoint: s.checkpoint, Counters: Counters{Duplicates: obs.NewRegistry().Counter("dups")}}
	const epoch, n = 3, 1
	gate := make(chan struct{})
	s.mu.Lock()
	s.gates[n] = gate
	s.mu.Unlock()

	// Each connection's frame must leave its loop blocked on the apply.
	expect := func(seq uint64) {
		t.Helper()
		if got, want := settle(s), []string{fmt.Sprintf("hand %d", seq), fmt.Sprintf("wait %d", seq)}; !slices.Equal(got, want) {
			t.Fatalf("loop went %q, want %q", got, want)
		}
	}
	a := pipeClient(t, r, s)
	seqStart(t, a, epoch, n)
	send(t, a, wire.TFleetSummary, []byte("N"))
	expect(n)

	b := pipeClient(t, r, s)
	if got := seqStart(t, b, epoch, n); got.Seq != 0 || got.Applied != n {
		t.Fatalf("reconnect reply %+v, want durable line 0 and resume %d", got, n)
	}
	seqStart(t, b, epoch, n+1)
	send(t, b, wire.TFleetSummary, []byte("N+1"))
	expect(n + 1)

	c := pipeClient(t, r, s)
	seqStart(t, c, epoch, n)
	send(t, c, wire.TFleetSummary, []byte("N again"))
	expect(n)

	s.mu.Lock()
	if len(s.applied) != 0 || s.wm.Settled != 0 || s.wm.Acked != 0 {
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
