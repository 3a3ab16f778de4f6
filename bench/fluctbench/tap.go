package main

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// The taps observe the pipeline from outside: they sit on connections the
// bench dials or accepts and follow the wire framing without touching what
// the program reads or writes. Only frame headers are parsed; the few
// payload bytes of the control frames a tap needs (Hello, SeqStart, Ack)
// are captured, every data payload is skipped unread.

// tapKeep bounds the payload bytes a scanner captures: enough for any
// control frame (a Hello carries a source ID of up to 255 bytes).
const tapKeep = 320

// headerScanner follows frame boundaries in a byte stream delivered in
// arbitrary pieces (socket reads split frames anywhere, and WriteFrame
// itself emits a frame as three writes). onFrame fires once per complete
// frame with its type, its total encoded size, and — for frames whose
// payload fits tapKeep and whose type want accepts — the payload.
type headerScanner struct {
	want    func(wire.Type) bool
	onFrame func(t wire.Type, payload []byte, size int)

	hdr    [5]byte
	nhdr   int
	typ    wire.Type
	size   int  // total encoded size of the current frame
	remain int  // payload + CRC bytes of the current frame still to pass
	plen   int  // payload length of the current frame
	keep   bool // capturing the payload into buf
	buf    []byte
}

// feed advances the scanner over the next piece of the stream.
func (s *headerScanner) feed(p []byte) {
	for len(p) > 0 {
		if s.remain == 0 {
			n := copy(s.hdr[s.nhdr:], p)
			s.nhdr += n
			p = p[n:]
			if s.nhdr < len(s.hdr) {
				return
			}
			s.nhdr = 0
			length := int(binary.LittleEndian.Uint32(s.hdr[:4])) // type byte + payload
			s.typ = wire.Type(s.hdr[4])
			s.plen = length - 1
			s.size = length + 8
			s.remain = s.plen + 4
			s.keep = s.plen <= tapKeep && s.want != nil && s.want(s.typ)
			s.buf = s.buf[:0]
			continue
		}
		n := min(len(p), s.remain)
		if s.keep {
			if room := s.plen - len(s.buf); room > 0 {
				s.buf = append(s.buf, p[:min(n, room)]...)
			}
		}
		s.remain -= n
		p = p[n:]
		if s.remain == 0 {
			var payload []byte
			if s.keep {
				payload = s.buf
			}
			s.onFrame(s.typ, payload, s.size)
		}
	}
}

// ackLog records the cumulative acknowledgements read off one sequenced
// hop and maps them back to the units of work they cover. A unit is noted
// with the sequence number of its last frame (a set's SetEnd, a summary
// frame) under an application key; it is complete at the first ack whose
// seq reaches that number. Frames of other kinds (verdict snapshots on
// the uplink) take sequence numbers too but are simply never noted.
type ackLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	high   uint64
	acks   []ackEvent // strictly increasing seq
	seqOf  map[setKey]uint64
	closed bool
}

type ackEvent struct {
	seq uint64
	at  time.Duration
}

// setKey names one trace set: the source's cumulative set ordinal
// (1-based, the collector's per-source Sets count once it completes).
type setKey struct {
	source string
	set    uint64
}

func newAckLog() *ackLog {
	l := &ackLog{seqOf: map[setKey]uint64{}}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// note records that k completes when seq is acked. A repeated key (a set
// re-applied after a collector restart ships its summary again) keeps its
// first sequence number: the first delivery is when it became visible.
func (l *ackLog) note(k setKey, seq uint64) {
	l.mu.Lock()
	if _, dup := l.seqOf[k]; !dup {
		l.seqOf[k] = seq
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// acked records one cumulative ack read at time at.
func (l *ackLog) acked(seq uint64, at time.Duration) {
	l.mu.Lock()
	if seq > l.high {
		l.high = seq
		l.acks = append(l.acks, ackEvent{seq, at})
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// wait blocks until k is noted and acked; false once the log is closed.
func (l *ackLog) wait(k setKey) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if seq, ok := l.seqOf[k]; ok && l.high >= seq {
			return true
		}
		if l.closed {
			return false
		}
		l.cond.Wait()
	}
}

// close releases every waiter; units still unacked count as failed.
func (l *ackLog) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// highest returns the newest acknowledged sequence number.
func (l *ackLog) highest() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.high
}

// seq returns the sequence number k was noted under.
func (l *ackLog) seq(k setKey) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, ok := l.seqOf[k]
	return seq, ok
}

// timeOf returns when k was first covered by an ack.
func (l *ackLog) timeOf(k setKey) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, ok := l.seqOf[k]
	if !ok || l.high < seq {
		return 0, false
	}
	lo, hi := 0, len(l.acks)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.acks[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return l.acks[lo].at, true
}

// ackConn is the client end of a sequenced hop with a read-side tap: every
// TAck the peer sends is timestamped into log as the shipper reads it.
// Embedding *net.TCPConn (rather than wrapping a net.Conn) keeps the
// shipper's vectored write on the real socket — net.Buffers only issues
// one writev when the destination is the TCP connection itself — so the
// tap costs the write path nothing.
type ackConn struct {
	*net.TCPConn
	scan  headerScanner
	clock func() time.Duration
}

func newAckConn(c *net.TCPConn, log *ackLog, clock func() time.Duration) *ackConn {
	ac := &ackConn{TCPConn: c, clock: clock}
	ac.scan.want = func(t wire.Type) bool { return t == wire.TAck }
	ac.scan.onFrame = func(t wire.Type, payload []byte, _ int) {
		if t != wire.TAck {
			return
		}
		if a, err := wire.DecodeAck(payload); err == nil {
			log.acked(a.Seq, ac.clock())
		}
	}
	return ac
}

func (c *ackConn) Read(p []byte) (int, error) {
	n, err := c.TCPConn.Read(p)
	c.scan.feed(p[:n])
	return n, err
}

// turnaround is one request/ack pair seen by a server-side tap.
type turnaround struct {
	peer      string // source (shard hop) or shard ID (uplink hop) from the Hello
	seq       uint64 // sequence number of the frame the ack answers
	read, ack time.Duration
}

// serverTap is the accepting end's tap (traced runs only): it times how
// long the server takes from having read an ack-worthy frame to writing
// the TAck for it — the collector's or aggregator's whole turnaround:
// queue wait, decode, integrate, checkpoint. Each ack-worthy frame and
// each SeqStart is answered by exactly one TAck, in order, so pairing is
// a FIFO.
type serverTap struct {
	net.Conn
	in, out headerScanner
	clock   func() time.Duration
	ackFor  func(wire.Type) bool
	sink    func(turnaround)

	// Both servers read frames and write acks on the connection's one
	// handler goroutine, so the pairing state needs no lock.
	peer      string
	sequenced bool   // a SeqStart opened acked delivery (spool-less shippers never do)
	next      uint64 // sequence number of the next data frame
	pending   []turnaround
}

func newServerTap(c net.Conn, clock func() time.Duration, ackFor func(wire.Type) bool, sink func(turnaround)) *serverTap {
	t := &serverTap{Conn: c, clock: clock, ackFor: ackFor, sink: sink}
	t.in.want = func(ft wire.Type) bool { return ft == wire.THello || ft == wire.TSeqStart }
	t.in.onFrame = t.frameIn
	t.out.onFrame = t.frameOut
	return t
}

func (t *serverTap) frameIn(ft wire.Type, payload []byte, _ int) {
	switch ft {
	case wire.THello:
		if h, err := wire.DecodeHello(payload); err == nil {
			t.peer = h.Source
		}
	case wire.TSeqStart:
		if ss, err := wire.DecodeSeqStart(payload); err == nil {
			t.next = ss.FirstSeq
		}
		t.sequenced = true
		t.pending = append(t.pending, turnaround{}) // answered by an ack, not a unit of work
	default:
		if !t.sequenced {
			return
		}
		seq := t.next
		t.next++
		if t.ackFor(ft) {
			t.pending = append(t.pending, turnaround{peer: t.peer, seq: seq, read: t.clock()})
		}
	}
}

func (t *serverTap) frameOut(ft wire.Type, _ []byte, _ int) {
	if ft != wire.TAck {
		return
	}
	if len(t.pending) == 0 {
		return
	}
	ta := t.pending[0]
	t.pending = t.pending[1:]
	if ta.peer != "" {
		ta.ack = t.clock()
		t.sink(ta)
	}
}

func (t *serverTap) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	t.in.feed(p[:n])
	return n, err
}

func (t *serverTap) Write(p []byte) (int, error) {
	n, err := t.Conn.Write(p)
	t.out.feed(p[:n])
	return n, err
}
