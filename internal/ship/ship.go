// Package ship is the worker-side trace shipping agent: it turns finished
// (or live) trace sets into wire frames, numbers them, and pushes them to
// the central collector over TCP, reconnecting with jittered exponential
// backoff when the link dies. Delivery is at-least-once: a frame is held
// until the collector acknowledges it as durably applied, a reconnect
// resumes where the collector is (see internal/wire/seq.go), and the
// collector deduplicates by (source, epoch, seq).
//
// The paper's collection philosophy applies to the network too: never stall
// the instrumented workload. Enqueueing never blocks. What differs is where
// the unacknowledged frames live:
//
//   - Without Config.SpoolDir they live in memory, for the life of the
//     process. When the collector is slow or unreachable and more than
//     QueueFrames of them are already held, the next set is refused whole —
//     before any of its frames is enqueued — and counted
//     (fluct_ship_dropped_frames_total). A set that was let in is delivered
//     complete; a full queue never thins one.
//   - With it every frame is written through to a disk-backed segment log
//     (internal/spool) first, nothing is ever refused, the in-memory queue is
//     only a cache over the spool's newest frames, and a restarted shipper
//     retransmits whatever the previous process left unacknowledged.
package ship

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/hashx"
	"repro/internal/obs"
	"repro/internal/spool"
	"repro/internal/wire"
)

// DialFunc opens the transport to the collector. Tests and fault injection
// substitute their own (loopback pipes, faults.NetPlan-wrapped conns).
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

// Config parameterizes a Shipper.
type Config struct {
	// Addr is the collector's address, passed to Dial.
	Addr string
	// Source identifies this shipper in the collector's fleet view
	// (1–255 bytes; hostname-pid is the conventional form).
	Source string
	// BatchRecords caps how many records — markers and samples together —
	// one frame carries (default 512). A frame also ends when its 4 KiB
	// buffer is full, which at the usual ≈10 bytes a record comes first, so
	// raising this buys nothing; lowering it ships smaller, fresher frames.
	BatchRecords int
	// QueueFrames (default 1024) plays one of two roles, both counted in
	// frames of up to 4 KiB, some hundreds of records each: the default is
	// ≈4 MiB, about twenty 2,000-item sets. Without a spool the in-memory
	// queue is the whole unacknowledged window and this is
	// its admission line: a set (or a frame shipped on its own) is refused
	// and counted while more than this many frames are already held, and a
	// set that was admitted is kept whole, so memory overshoots the line by
	// at most one set. With a spool the queue is only a cache, and this
	// bounds it: overflow evicts the oldest cache entry while the frame
	// stays replayable from disk.
	QueueFrames int
	// SpoolDir makes delivery survive a restart of this process: frames are
	// written through to a disk spool here before transmission and deleted
	// only once acknowledged (see the package comment). Empty keeps the
	// unacknowledged frames in memory only.
	SpoolDir string
	// Dial opens the connection (default net.Dialer over TCP).
	Dial DialFunc
	// BackoffMin/BackoffMax bound the reconnect backoff (defaults 50ms
	// and the larger of 5s and BackoffMin). Each failed attempt doubles
	// the wait up to BackoffMax, with ±50% jitter so a fleet of shippers
	// restarting together does not reconnect in lockstep; the jitter is
	// seeded from Source, so one shipper's reconnect schedule is
	// deterministic and two sources' differ. The backoff resets only
	// after a connection proves useful — handshake completed AND the
	// SeqStart answered — so a listener that accepts and drops connections
	// cannot collapse the backoff and induce a hot reconnect loop.
	BackoffMin, BackoffMax time.Duration
	// OnRedirect, when set, is consulted whenever the collector sends a
	// TRedirect frame (its shard is draining and this source has a new
	// owner). It receives the post-departure membership table and returns
	// the address to dial next — typically by re-hashing Source over the
	// table — or "" to keep the current address. Either way the shipper
	// drops the connection and reconnects instead of waiting out a dial
	// timeout against a leaving shard; unacknowledged frames replay to the
	// new owner, which deduplicates by (source, epoch, seq).
	OnRedirect func(members []string) string
	// OnControlFrame, when set, receives every collector-to-shipper frame
	// that is neither a TAck nor a TRedirect (e.g. THandoffAck import
	// dispositions on a drain connection). The frame's payload is an
	// owned copy; the callback runs on the ack-reader goroutine and must
	// not block.
	OnControlFrame func(f wire.Frame)
	// Registry receives the shipper's self-telemetry (nil: obs.Default()).
	Registry *obs.Registry
}

// Shipper ships frames to one collector. Producers enqueue (EnqueueFrame /
// ShipSet) from any goroutine; one Run loop drains the queue to the
// network.
type Shipper struct {
	cfg  Config
	pool *wire.FramePool // frame encodings are built in pooled buffers (and shipped from them: see enqueueBuilt)

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []queued // FIFO, contiguous by seq: the whole unacked window, or a cache over the spool's newest frames
	closed    bool
	epoch     uint64 // numbering generation: the spool's, or this process's
	nextSeq   uint64 // seq the next enqueued frame takes
	nextSend  uint64 // seq of the next frame to transmit
	lastAcked uint64 // highest seq the collector acked
	highSent  uint64 // highest seq ever written to a socket
	addr      string // current collector address; rewritten by TRedirect
	queueHW   int    // deepest the queue has ever been

	spl *spool.Spool // nil without Config.SpoolDir
	rec spool.Recovery

	metQueue      *obs.Gauge
	metQueueHW    *obs.Gauge
	metDropped    *obs.Counter
	metEvicted    *obs.Counter
	metReconnects *obs.Counter
	metRedirects  *obs.Counter
	metFrames     *obs.Counter
	metBytes      *obs.Counter
	metSets       *obs.Counter
	metRetrans    *obs.Counter
	metAcked      *obs.Gauge
	metSpoolErrs  *obs.Counter

	rng hashx.SplitMix64
}

// queued is one encoded frame awaiting acknowledgement: the complete wire
// encoding, its sequence number, and the pooled buffer backing the bytes
// (nil when they are an exact-size copy: see enqueueBuilt). The queue owns one
// buffer reference per entry; whoever removes an entry — eviction, ack
// trim — releases it. The pump takes its own reference around each socket
// write, so a concurrent removal can never recycle bytes mid-write.
type queued struct {
	seq   uint64
	bytes []byte
	buf   *wire.Buf
}

// New validates cfg and builds a shipper, opening (and recovering) the
// spool when cfg.SpoolDir is set.
func New(cfg Config) (*Shipper, error) {
	if cfg.Source == "" || len(cfg.Source) > 255 {
		return nil, fmt.Errorf("ship: source ID must be 1–255 bytes")
	}
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = 512
	}
	if cfg.QueueFrames <= 0 {
		cfg.QueueFrames = 1024
	}
	if cfg.Dial == nil {
		cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 50 * time.Millisecond
	}
	if cfg.BackoffMax < cfg.BackoffMin {
		cfg.BackoffMax = max(5*time.Second, cfg.BackoffMin)
	}
	var jitterSeed uint64
	for _, b := range []byte(cfg.Source) {
		jitterSeed = jitterSeed*131 + uint64(b)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	s := &Shipper{
		cfg:           cfg,
		addr:          cfg.Addr,
		pool:          wire.NewFramePool(reg),
		metQueue:      reg.Gauge("fluct_ship_queue_depth"),
		metQueueHW:    reg.Gauge("fluct_ship_queue_high_watermark"),
		metDropped:    reg.Counter("fluct_ship_dropped_frames_total"),
		metEvicted:    reg.Counter("fluct_ship_cache_evictions_total"),
		metReconnects: reg.Counter("fluct_ship_reconnects_total"),
		metRedirects:  reg.Counter("fluct_ship_redirects_total"),
		metFrames:     reg.Counter("fluct_ship_frames_sent_total"),
		metBytes:      reg.Counter("fluct_ship_bytes_sent_total"),
		metSets:       reg.Counter("fluct_ship_sets_total"),
		metRetrans:    reg.Counter("fluct_ship_retransmitted_frames_total"),
		metAcked:      reg.Gauge("fluct_ship_acked_seq"),
		metSpoolErrs:  reg.Counter("fluct_ship_spool_errors_total"),
		rng:           hashx.SplitMix64{State: jitterSeed | 1},
	}
	s.cond = sync.NewCond(&s.mu)
	// Same rule as a fresh spool: an epoch no earlier generation used.
	s.epoch, s.nextSeq = uint64(time.Now().UnixNano())|1, 1
	if cfg.SpoolDir != "" {
		spl, rec, err := spool.Open(spool.Config{Dir: cfg.SpoolDir, Registry: reg})
		if err != nil {
			return nil, err
		}
		s.spl, s.rec = spl, rec
		s.epoch, s.nextSeq, s.lastAcked = spl.Epoch(), spl.NextSeq(), spl.AckedSeq()
	}
	s.highSent = s.lastAcked
	s.nextSend = s.lastAcked + 1
	s.metAcked.SetInt(int(s.lastAcked))
	return s, nil
}

// Recovery reports what the spool found on disk at New (zero value when
// spooling is disabled or the spool was clean).
func (s *Shipper) Recovery() spool.Recovery { return s.rec }

// Epoch returns the numbering epoch: the spool's when there is one (it
// survives restarts), otherwise one drawn at New.
func (s *Shipper) Epoch() uint64 { return s.epoch }

// ErrQueueFull is returned by ShipSet when a shipper without a spool already
// holds more than Config.QueueFrames unacknowledged frames: the set was
// refused whole, nothing of it was enqueued, and the refusal was counted.
var ErrQueueFull = errors.New("ship: queue full, set refused")

var errClosed = errors.New("ship: shipper closed")

// EnqueueFrame queues one frame that stands on its own (sets go through
// ShipSet). It never blocks. It returns false when the frame was not taken:
// the shipper is closed, the frame is too large to ship, the spool could
// not store it, or — without a spool — the queue is past its admission
// line. Every refusal by an open shipper is counted.
func (s *Shipper) EnqueueFrame(f wire.Frame) bool { return s.enqueueFrame(f, true) == nil }

// enqueueFrame queues a frame whose payload is already encoded; opens is
// passed through to enqueue.
func (s *Shipper) enqueueFrame(f wire.Frame, opens bool) error {
	buf, dst := s.beginFrame(f.Type, len(f.Payload)+wire.FrameOverhead)
	return s.enqueueBuilt(buf, append(dst, f.Payload...), opens)
}

// beginFrame draws a pooled buffer of at least n bytes and opens a frame of
// type t at its start, for the payload to be appended in place.
func (s *Shipper) beginFrame(t wire.Type, n int) (*wire.Buf, []byte) {
	buf := s.pool.Get(n)
	dst, _ := wire.BeginFrame(buf.Bytes()[:0], t)
	return buf, dst
}

// enqueueBuilt seals the frame beginFrame opened in buf, now dst, and queues
// those exact bytes: the spool append and the socket write both consume the
// one encoding. The queue keeps the pooled buffer only when the encoding
// fills at least half of it. Anything smaller — a SetEnd, a symtab, a set's
// last part-filled record frame, a summary at the bottom of its class — is
// queued as an exact-size copy and the buffer goes back at once, so what a
// frame holds while it waits for its ack is its own size, not its class's.
// opens is passed through to enqueue.
func (s *Shipper) enqueueBuilt(buf *wire.Buf, dst []byte, opens bool) error {
	dst, err := wire.EndFrame(dst, 0)
	if err != nil {
		// Oversized payload: unshippable by construction.
		buf.Release()
		s.metDropped.Inc()
		return fmt.Errorf("ship: %s frame: %w", wire.Type(dst[4]), err)
	}
	if len(dst) < buf.Cap()/2 {
		dst = bytes.Clone(dst)
		buf.Release()
		buf = nil
	} else {
		buf.SetLen(len(dst))
	}
	return s.enqueue(dst, buf, opens)
}

// enqueue numbers one complete frame encoding (backed by buf when pooled)
// and adds it to the queue, behind the spool write-through when there is a
// spool. opens marks a frame that begins a unit of work — a set's symtab, or
// a frame shipped on its own: a shipper with nowhere to spill refuses it
// while the queue is past its admission line, and lets the rest of an
// admitted set follow it in whatever the depth.
func (s *Shipper) enqueue(enc []byte, buf *wire.Buf, opens bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		buf.Release()
		return errClosed
	case s.spl != nil:
		seq, err := s.spl.Append(enc)
		if err != nil {
			// The disk failed, not the collector: the frame is stored
			// nowhere, and the queue must stay contiguous by seq, so it
			// cannot ride along unspooled.
			s.metSpoolErrs.Inc()
			s.metDropped.Inc()
			buf.Release()
			return fmt.Errorf("ship: %w", err)
		}
		s.nextSeq = seq
	case opens && len(s.queue) > s.cfg.QueueFrames:
		s.metDropped.Inc()
		buf.Release()
		return ErrQueueFull
	}
	s.queue = append(s.queue, queued{seq: s.nextSeq, bytes: enc, buf: buf})
	s.nextSeq++
	if d := len(s.queue); d > s.queueHW {
		s.queueHW = d
		s.metQueueHW.SetInt(d)
	}
	if over := len(s.queue) - s.cfg.QueueFrames; over > 0 && s.spl != nil {
		// Only the cache copy goes: the frames replay from disk.
		for i := 0; i < over; i++ {
			s.queue[i].buf.Release()
		}
		s.queue = s.queue[over:]
		s.metEvicted.Add(uint64(over))
	}
	s.metQueue.SetInt(len(s.queue))
	s.cond.Signal()
	return nil
}

// PendingFrames returns how many enqueued frames the collector has not yet
// acknowledged.
func (s *Shipper) PendingFrames() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq - 1 - s.lastAcked
}

// Close marks the shipper closed: further enqueues are refused and Run
// returns once everything pending is acknowledged. The spool itself is
// closed when Run exits.
func (s *Shipper) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Drain blocks until every enqueued frame is acknowledged or ctx is
// cancelled. The deadline error reports how many frames were still pending
// when it hit, so "drain timed out" logs say how far delivery got, not just
// that it stopped.
func (s *Shipper) Drain(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if s.PendingFrames() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("ship: drain deadline with %d frames pending: %w", s.PendingFrames(), ctx.Err())
		case <-tick.C:
		}
	}
}

// Addr returns the collector address the shipper currently dials —
// Config.Addr until a TRedirect rewrites it.
func (s *Shipper) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// releaseBufs drops the snapshot references taken by nextBatch.
func releaseBufs(bufs []*wire.Buf) {
	for _, b := range bufs {
		b.Release()
	}
}

// writeFrames pushes a batch of complete frame encodings with one vectored
// write: on a TCP connection net.Buffers coalesces the batch into a single
// writev, on any other conn it degrades to one Write per frame — which
// keeps per-frame write granularity for fault-injecting test conns (frame
// cuts land on frame boundaries of the injector's choosing, as before).
// The outer slice is cloned because WriteTo consumes it. Returns the bytes
// written and the first error.
func writeFrames(conn net.Conn, frames [][]byte) (int64, error) {
	bufs := net.Buffers(slices.Clone(frames))
	return bufs.WriteTo(conn)
}

// fullyWritten counts how many leading frames a write of n bytes fully
// covered, and their total size. A trailing partial frame is not counted:
// its connection is dying, and the whole frame will be retransmitted.
func fullyWritten(frames [][]byte, n int64) (full int, bytes uint64) {
	for _, f := range frames {
		if int64(bytes)+int64(len(f)) > n {
			break
		}
		bytes += uint64(len(f))
		full++
	}
	return full, bytes
}

// waitWork blocks until some frame is unacknowledged, returning false when
// the shipper is done.
func (s *Shipper) waitWork(ctx context.Context) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return false
		}
		if s.nextSeq-1 > s.lastAcked {
			return true
		}
		if s.closed {
			return false
		}
		s.cond.Wait()
	}
}

// Run connects, handshakes, and drains the queue to the collector until
// ctx is cancelled or Close is called and everything pending has been
// acknowledged. Connection failures — a refused dial, a refused handshake,
// a link that dies — are retried forever with jittered exponential backoff.
// The backoff resets only once a connection has completed the handshake and
// had its SeqStart answered — a successful dial alone proves nothing when
// the far end accepts and immediately drops.
func (s *Shipper) Run(ctx context.Context) error {
	// Wake any cond.Wait when the context dies.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	if s.spl != nil {
		defer s.spl.Close()
	}

	backoff := s.cfg.BackoffMin
	for {
		// Wait for work before dialing: an idle shipper holds no socket.
		if !s.waitWork(ctx) {
			return ctx.Err()
		}
		conn, err := s.cfg.Dial(ctx, s.Addr())
		if err == nil {
			if _, err = wire.ClientHandshake(conn, s.cfg.Source); err == nil {
				err = s.pump(ctx, conn, func() { backoff = s.cfg.BackoffMin })
			}
			conn.Close()
			if err == nil {
				return ctx.Err() // clean shutdown: closed + drained, or ctx done
			}
		}
		s.metReconnects.Inc()
		if !s.sleep(ctx, backoff) {
			return ctx.Err()
		}
		backoff = s.bump(backoff)
	}
}

// errConnDead reports the ack reader observing the connection die while
// the pump was waiting for acknowledgements.
var errConnDead = fmt.Errorf("ship: connection died awaiting acks")

// errAckOvertook reports an ack covering frames this connection never
// carried. The collector numbers a connection's frames consecutively from
// its SeqStart, so the only way past them is a new connection.
var errAckOvertook = fmt.Errorf("ship: ack overtook this connection's numbering")

// connState is what the ack reader tells the pump about one connection.
type connState struct {
	dead    bool   // the connection died
	replied bool   // the SeqStart reply arrived...
	applied uint64 // ...advertising this resume line
}

// writeSeqStart sends one TSeqStart as a single write, so a link that dies
// mid-frame gets one chance at it, not WriteFrame's three.
func writeSeqStart(conn net.Conn, epoch, first uint64) error {
	payload := wire.AppendSeqStart(nil, wire.SeqStart{Epoch: epoch, FirstSeq: first})
	_, err := conn.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.TSeqStart, Payload: payload}))
	return err
}

// pump runs one handshaken connection until everything closes cleanly (nil)
// or the connection fails (non-nil). It opens the numbering just past the
// acked watermark, learns from the SeqStart reply how much more the
// collector already holds, renumbers past that, and then transmits in
// sequence order while the ack reader advances the watermark. Each pass
// coalesces everything transmittable into one vectored write. onReply runs
// once the SeqStart reply is in — the proof of a live collector on the
// other end that resets the reconnect backoff.
func (s *Shipper) pump(ctx context.Context, conn net.Conn, onReply func()) error {
	s.mu.Lock()
	first := s.lastAcked + 1
	s.mu.Unlock()
	if err := writeSeqStart(conn, s.epoch, first); err != nil {
		return err
	}
	cs := &connState{}
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		s.readAcks(conn, cs)
	}()
	// Join the ack reader before returning: Run closes the spool after
	// the pump exits, and a still-running reader must not Ack into a
	// closed spool. Closing conn here unblocks its read (Run's own
	// Close afterwards is then a no-op).
	defer func() {
		conn.Close()
		<-ackDone
	}()

	// Resume where the collector is: frames it still holds from an earlier
	// connection (applied, not yet durable) need no retransmission, but
	// they are not reclaimed either — only an ack does that, so a collector
	// re-created from its checkpoint is replayed to from there.
	s.mu.Lock()
	for !cs.replied && !cs.dead && ctx.Err() == nil {
		s.cond.Wait()
	}
	if !cs.replied {
		s.mu.Unlock()
		if ctx.Err() != nil {
			return nil
		}
		return errConnDead
	}
	s.nextSend = min(max(cs.applied, s.lastAcked), s.nextSeq-1) + 1
	resume := s.nextSend
	s.mu.Unlock()
	onReply()
	if resume > first {
		if err := writeSeqStart(conn, s.epoch, resume); err != nil {
			return err
		}
	}

	for {
		frames, seqs, bufs, err := s.nextBatch(ctx, cs)
		if err != nil {
			return err
		}
		if frames == nil {
			return nil // clean shutdown
		}
		n, werr := writeFrames(conn, frames)
		full, bytes := fullyWritten(frames, n)
		if full > 0 {
			s.metFrames.Add(uint64(full))
			s.metBytes.Add(bytes)
			last := seqs[full-1]
			s.mu.Lock()
			retrans := 0
			for _, seq := range seqs[:full] {
				if seq <= s.highSent {
					retrans++
				}
			}
			if retrans > 0 {
				s.metRetrans.Add(uint64(retrans))
			}
			if last > s.highSent {
				s.highSent = last
			}
			s.nextSend = last + 1
			s.mu.Unlock()
		}
		releaseBufs(bufs)
		if werr != nil {
			return werr
		}
	}
}

// nextBatch blocks until frames are transmittable and returns them in
// sequence order — from the in-memory queue when it holds the next needed
// sequence (always, without a spool), replayed from the spool otherwise
// (after a restart or a cache eviction). Cache-served frames come with a retained buffer
// reference each (the caller releases after writing); replayed frames are
// fresh copies with no buffers to release. A nil-frames, nil-error return
// means clean shutdown; errConnDead means the connection died while
// waiting, errAckOvertook that it must be renumbered.
func (s *Shipper) nextBatch(ctx context.Context, cs *connState) ([][]byte, []uint64, []*wire.Buf, error) {
	s.mu.Lock()
	for {
		if ctx.Err() != nil {
			s.mu.Unlock()
			return nil, nil, nil, nil
		}
		if cs.dead {
			s.mu.Unlock()
			return nil, nil, nil, errConnDead
		}
		if s.nextSend <= s.lastAcked {
			// The ack is already applied; the redial opens just past it.
			s.mu.Unlock()
			return nil, nil, nil, errAckOvertook
		}
		top := s.nextSeq
		if s.nextSend < top {
			if len(s.queue) > 0 && s.queue[0].seq <= s.nextSend {
				idx := int(s.nextSend - s.queue[0].seq)
				frames := make([][]byte, 0, len(s.queue)-idx)
				seqs := make([]uint64, 0, len(s.queue)-idx)
				bufs := make([]*wire.Buf, 0, len(s.queue)-idx)
				for ; idx < len(s.queue); idx++ {
					frames = append(frames, s.queue[idx].bytes)
					seqs = append(seqs, s.queue[idx].seq)
					bufs = append(bufs, s.queue[idx].buf)
					s.queue[idx].buf.Retain()
				}
				s.mu.Unlock()
				return frames, seqs, bufs, nil
			}
			// Cache miss: the frames live only on disk. Replay up to the
			// cache's start (or a bounded batch) without holding the lock.
			from := s.nextSend
			to := top
			if len(s.queue) > 0 && s.queue[0].seq < to {
				to = s.queue[0].seq
			}
			if to > from+replayBatch {
				to = from + replayBatch
			}
			s.mu.Unlock()
			frames, seqs, err := s.replay(from, to)
			s.mu.Lock()
			if err != nil || len(frames) == 0 {
				// The replay raced the ack reader: an ack can delete the
				// very segment being read. If the watermark moved past the
				// batch start, nothing was lost — the loop's overtake check
				// takes it from there.
				if s.lastAcked >= from {
					continue
				}
				s.mu.Unlock()
				if err == nil {
					err = fmt.Errorf("ship: spool replay [%d,%d): no frames", from, to)
				}
				return nil, nil, nil, err
			}
			s.mu.Unlock()
			return frames, seqs, nil, nil
		}
		if s.closed && s.lastAcked >= top-1 {
			s.mu.Unlock()
			return nil, nil, nil, nil
		}
		s.cond.Wait()
	}
}

// replayBatch bounds how many frames one spool replay pass loads into
// memory.
const replayBatch = 256

// replay copies frames [from, to) out of the spool.
func (s *Shipper) replay(from, to uint64) ([][]byte, []uint64, error) {
	var frames [][]byte
	var seqs []uint64
	err := s.spl.Frames(from, func(seq uint64, raw []byte) error {
		if seq >= to {
			return errReplayDone
		}
		frames = append(frames, append([]byte(nil), raw...))
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil && err != errReplayDone {
		return nil, nil, fmt.Errorf("ship: spool replay: %w", err)
	}
	return frames, seqs, nil
}

// errReplayDone stops a spool replay early once the batch is full.
var errReplayDone = fmt.Errorf("ship: replay batch done")

// readAcks consumes collector frames — TAck advances the watermark, reclaims
// spool segments, and trims the queue; the first one is the SeqStart reply
// the pump waits for — until the connection dies, then wakes the pump so it
// can reconnect. Frames are read into the shipper's pool and released as
// soon as they are decoded.
func (s *Shipper) readAcks(conn net.Conn, cs *connState) {
	rd := s.pool.NewReader(conn)
	for {
		f, err := rd.Next()
		if err != nil {
			break
		}
		if f.Type != wire.TAck {
			stop := s.control(f)
			f.Release()
			if stop {
				break // redirected: drop the conn and redial at the new address
			}
			continue
		}
		a, err := wire.DecodeAck(f.Payload)
		f.Release()
		if err != nil || a.Epoch != s.epoch {
			continue
		}
		if s.spl != nil {
			if err := s.spl.Ack(a.Seq); err != nil {
				s.metSpoolErrs.Inc()
			}
		}
		s.applyAck(a, cs)
	}
	s.mu.Lock()
	cs.dead = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// control handles a non-ack collector frame: TRedirect rewrites the dial
// address via Config.OnRedirect, everything else is handed to
// Config.OnControlFrame. Returns true when the current connection should
// be abandoned — a collector that redirects is leaving, so reconnecting
// (wherever the shipper now points) beats waiting for it to die.
func (s *Shipper) control(f wire.FrameView) (stop bool) {
	if f.Type != wire.TRedirect {
		if s.cfg.OnControlFrame != nil {
			// Own the payload: the view is released on return.
			p := append([]byte(nil), f.Payload...)
			s.cfg.OnControlFrame(wire.Frame{Type: f.Type, Payload: p})
		}
		return false
	}
	r, err := wire.DecodeRedirect(f.Payload)
	if err != nil {
		return false
	}
	if s.cfg.OnRedirect != nil {
		if next := s.cfg.OnRedirect(r.Members); next != "" {
			s.mu.Lock()
			changed := next != s.addr
			s.addr = next
			s.mu.Unlock()
			if changed {
				s.metRedirects.Inc()
			}
		}
	}
	return true
}

// applyAck advances the acked watermark and trims the queue, releasing the
// trimmed entries' pooled buffers, and notes the connection's first ack as
// its SeqStart reply.
func (s *Shipper) applyAck(a wire.Ack, cs *connState) {
	s.mu.Lock()
	if !cs.replied {
		cs.replied, cs.applied = true, a.Applied
	}
	if a.Seq > s.lastAcked {
		s.lastAcked = a.Seq
		s.metAcked.SetInt(int(a.Seq))
	}
	trim := 0
	for trim < len(s.queue) && s.queue[trim].seq <= s.lastAcked {
		s.queue[trim].buf.Release()
		trim++
	}
	if trim > 0 {
		s.queue = s.queue[trim:]
		s.metQueue.SetInt(len(s.queue))
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// bump doubles the backoff up to the max.
func (s *Shipper) bump(d time.Duration) time.Duration {
	d *= 2
	if d > s.cfg.BackoffMax {
		d = s.cfg.BackoffMax
	}
	return d
}

// jitteredWait scales d by the deterministic jitter factor in [0.5, 1.5)
// and clamps the result to BackoffMax: every wait stays within ±50% of
// its nominal exponential step and never exceeds the configured ceiling.
func (s *Shipper) jitteredWait(d time.Duration) time.Duration {
	j := 0.5 + float64(s.rng.Next()%1024)/1024.0
	w := time.Duration(float64(d) * j)
	if w > s.cfg.BackoffMax {
		w = s.cfg.BackoffMax
	}
	return w
}

// sleep waits the jittered form of d, returning false when ctx dies first.
func (s *Shipper) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(s.jitteredWait(d))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
