package main

import (
	"io"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"repro/internal/wire"
)

type seenFrame struct {
	t       wire.Type
	size    int
	payload string
}

// uplinkStream is a shard→aggregator stream as the uplink writes it:
// handshake, SeqStart, then summaries with a verdict snapshot in between.
func uplinkStream(t *testing.T) (stream []byte, want []seenFrame) {
	t.Helper()
	hello, err := wire.AppendHello(nil, wire.Hello{MinVersion: wire.MinVersion, MaxVersion: wire.MaxVersion, Source: "shard-a"})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 5000) // a data payload far larger than any read piece
	for i := range big {
		big[i] = byte(i)
	}
	frames := []wire.Frame{
		{Type: wire.THello, Payload: hello},
		{Type: wire.TSeqStart, Payload: wire.AppendSeqStart(nil, wire.SeqStart{Epoch: 9, FirstSeq: 5})},
		{Type: wire.TFleetSummary, Payload: big},
		{Type: wire.TVerdicts, Payload: big[:700]},
		{Type: wire.TFleetSummary, Payload: big[:33]},
	}
	for _, f := range frames {
		stream = wire.AppendFrame(stream, f)
		sf := seenFrame{t: f.Type, size: len(f.Payload) + wire.FrameOverhead}
		if f.Type == wire.THello || f.Type == wire.TSeqStart {
			sf.payload = string(f.Payload)
		}
		want = append(want, sf)
	}
	return stream, want
}

func scanPieces(stream []byte, cut func() int) []seenFrame {
	var got []seenFrame
	s := headerScanner{
		want: func(t wire.Type) bool { return t == wire.THello || t == wire.TSeqStart },
		onFrame: func(t wire.Type, payload []byte, size int) {
			got = append(got, seenFrame{t, size, string(payload)})
		},
	}
	for len(stream) > 0 {
		n := min(cut(), len(stream))
		s.feed(stream[:n])
		stream = stream[n:]
	}
	return got
}

// TestHeaderScannerSplitReads: however the stream is cut into reads, the
// scanner reports the same frames, sizes and captured control payloads.
func TestHeaderScannerSplitReads(t *testing.T) {
	stream, want := uplinkStream(t)
	check := func(name string, got []seenFrame) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: frame %d = {%s %d %q}, want {%s %d %q}", name, i,
					got[i].t, got[i].size, got[i].payload, want[i].t, want[i].size, want[i].payload)
			}
		}
	}
	for piece := 1; piece <= 64; piece++ {
		check("fixed pieces", scanPieces(stream, func() int { return piece }))
	}
	check("one read", scanPieces(stream, func() int { return len(stream) }))
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		check("random pieces", scanPieces(stream, func() int { return 1 + rng.IntN(900) }))
	}
}

// TestAckLogInterleavedVerdicts: on the uplink, verdict snapshots take
// sequence numbers between the summaries; cumulative acks must still
// resolve each set to the first ack that covers its own summary.
func TestAckLogInterleavedVerdicts(t *testing.T) {
	l := newAckLog()
	a, b := setKey{"worker-0", 1}, setKey{"worker-0", 2}
	l.note(a, 5) // summary of set 1
	// seq 6 is a TVerdicts frame: never noted
	l.note(b, 7)  // summary of set 2
	l.note(a, 11) // set 1's summary shipped again after a collector restart

	if _, ok := l.timeOf(a); ok {
		t.Fatal("set 1 resolved before any ack")
	}
	l.acked(4, 1*time.Millisecond) // the SeqStart's ack: covers nothing noted
	l.acked(5, 2*time.Millisecond)
	l.acked(5, 3*time.Millisecond) // a repeated watermark is not news
	l.acked(6, 4*time.Millisecond) // the verdict frame's ack
	if at, ok := l.timeOf(a); !ok || at != 2*time.Millisecond {
		t.Fatalf("set 1 visible at %v %v, want 2ms", at, ok)
	}
	if _, ok := l.timeOf(b); ok {
		t.Fatal("set 2 resolved by the verdict frame's ack")
	}
	done := make(chan bool, 1)
	go func() { done <- l.wait(b) }()
	l.acked(9, 5*time.Millisecond) // cumulative: skips 7 and 8
	if !<-done {
		t.Fatal("wait(set 2) released as failed")
	}
	if at, _ := l.timeOf(b); at != 5*time.Millisecond {
		t.Fatalf("set 2 visible at %v, want 5ms", at)
	}
	if seq, _ := l.seq(a); seq != 5 {
		t.Fatalf("set 1 re-noted under seq %d, want its first (5)", seq)
	}
	l.close()
	if l.wait(setKey{"worker-0", 3}) {
		t.Fatal("wait on an unshipped set succeeded after close")
	}
}

// TestServerTapPairsAcks: the aggregator-side tap pairs each TAck written
// with the frame it answers, numbering data frames from the SeqStart and
// skipping the SeqStart's own ack.
func TestServerTapPairsAcks(t *testing.T) {
	stream, _ := uplinkStream(t)
	var got []turnaround
	clock := time.Duration(0)
	tap := newServerTap(nil, func() time.Duration { clock += time.Millisecond; return clock },
		func(ft wire.Type) bool { return ft == wire.TFleetSummary || ft == wire.TVerdicts },
		func(ta turnaround) { got = append(got, ta) })
	ack := wire.AppendFrame(nil, wire.Frame{Type: wire.TAck, Payload: wire.AppendAck(nil, wire.Ack{Epoch: 9, Seq: 1})})
	helloAck := wire.AppendFrame(nil, wire.Frame{Type: wire.THelloAck, Payload: wire.AppendHelloAck(nil, wire.HelloAck{OK: true, Version: 2})})

	tap.in.feed(stream)
	tap.out.feed(helloAck)
	for i := 0; i < 4; i++ { // SeqStart + three data frames
		tap.out.feed(ack[:3])
		tap.out.feed(ack[3:])
	}
	if len(got) != 3 {
		t.Fatalf("%d turnarounds, want 3: %+v", len(got), got)
	}
	for i, ta := range got {
		if ta.peer != "shard-a" || ta.seq != uint64(5+i) || ta.ack <= ta.read {
			t.Errorf("turnaround %d = %+v, want peer shard-a seq %d and ack after read", i, ta, 5+i)
		}
	}
}

// countingConn notices any per-buffer Write a vectored write degrades to.
type countingConn struct {
	*ackConn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.ackConn.Write(p)
}

// TestAckConnKeepsVectoredWrites: the shipper sends a batch of frames with
// net.Buffers, which only becomes one writev when the destination is the
// TCP connection itself. The ack tap must not turn that into a write per
// frame — it would change the program being measured.
func TestAckConnKeepsVectoredWrites(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan int, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			got <- -1
			return
		}
		defer c.Close()
		n, _ := io.Copy(io.Discard, c)
		got <- int(n)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := &countingConn{ackConn: newAckConn(c.(*net.TCPConn), newAckLog(), func() time.Duration { return 0 })}
	bufs := net.Buffers{[]byte("aaaa"), []byte("bbbb"), []byte("cccc")}
	if n, err := bufs.WriteTo(conn); err != nil || n != 12 {
		t.Fatalf("WriteTo = %d, %v", n, err)
	}
	conn.Close()
	if n := <-got; n != 12 {
		t.Fatalf("peer received %d bytes, want 12", n)
	}
	if conn.writes != 0 {
		t.Fatalf("vectored write degraded to %d Write calls", conn.writes)
	}
}
