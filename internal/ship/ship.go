// Package ship is the worker-side trace shipping agent: it turns finished
// (or live) trace sets into wire frames, queues them behind a bounded
// buffer, and pushes them to the central collector over TCP, reconnecting
// with jittered exponential backoff when the link dies.
//
// The queue policy is the paper's own collection philosophy applied to the
// network: never stall the instrumented workload. When the collector is
// slow or unreachable the shipper sheds the *oldest* frames — stale
// telemetry is the cheapest telemetry to lose — and counts every drop in
// the obs registry (fluct_ship_dropped_frames_total), so degradation is
// visible, never silent.
//
// With Config.SpoolDir set the shipper is additionally durable: every
// frame is written through to a disk-backed segment log (internal/spool)
// before it is eligible for transmission, the in-memory queue becomes a
// cache over the spool, and frames are deleted from disk only once the
// collector acknowledges them as durably applied. A shipper restart
// retransmits everything unacknowledged — delivery becomes at-least-once,
// with the collector deduplicating by (source, epoch, seq).
package ship

import (
	"context"
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
	// BatchRecords caps how many markers or samples one frame carries
	// (default 512). Smaller batches ship fresher, larger batches ship
	// cheaper.
	BatchRecords int
	// QueueFrames bounds the outbound frame queue (default 1024). When
	// full without a spool, the oldest queued frame is dropped and
	// counted; with a spool the queue is only a cache, so overflow evicts
	// the oldest cache entry while the frame stays replayable from disk.
	QueueFrames int
	// SpoolDir enables durable at-least-once shipping: frames are written
	// through to a disk spool here before transmission and deleted only
	// once acknowledged (see the package comment). Empty disables
	// spooling: delivery is fire-and-forget.
	SpoolDir string
	// SpoolSegmentBytes is the spool's segment rotation bound
	// (default 1 MiB).
	SpoolSegmentBytes int
	// SpoolEpoch pins a fresh spool's numbering epoch (tests only;
	// default: time-derived, unique per spool generation).
	SpoolEpoch uint64
	// Dial opens the connection (default net.Dialer over TCP).
	Dial DialFunc
	// BackoffMin/BackoffMax bound the reconnect backoff (defaults 50ms
	// and 5s). Each failed attempt doubles the wait up to BackoffMax,
	// with ±50% deterministic jitter so a fleet of shippers restarting
	// together does not reconnect in lockstep. The backoff resets only
	// after a connection proves useful — handshake completed AND a first
	// frame written — so a listener that accepts and drops connections
	// cannot collapse the backoff and induce a hot reconnect loop.
	BackoffMin, BackoffMax time.Duration
	// JitterSeed seeds the backoff jitter (default: derived from Source),
	// keeping reconnect schedules deterministic per shipper.
	JitterSeed uint64
	// OnRedirect, when set, is consulted whenever the collector sends a
	// TRedirect frame (its shard is draining and this source has a new
	// owner). It receives the post-departure membership table and returns
	// the address to dial next — typically by re-hashing Source over the
	// table — or "" to keep the current address. Either way the shipper
	// drops the connection and reconnects instead of waiting out a dial
	// timeout against a leaving shard; spooled frames replay to the new
	// owner, which deduplicates by (source, epoch, seq).
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
	pool *wire.FramePool // frame encodings are built in (and shipped from) pooled buffers

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []queued // FIFO: queue[0] is oldest; contiguous by seq when spooled
	closed    bool
	memSeq    uint64 // no-spool mode: ordinal of the last enqueued frame
	nextSend  uint64 // spool mode: seq of the next frame to transmit
	lastAcked uint64 // spool mode: highest seq the collector acked
	highSent  uint64 // spool mode: highest seq ever written to a socket
	addr      string // current collector address; rewritten by TRedirect
	queueHW   int    // deepest the queue has ever been

	spl *spool.Spool
	rec spool.Recovery

	metQueue      *obs.Gauge
	metQueueHW    *obs.Gauge
	metDropped    *obs.Counter
	metDropInSet  *obs.Counter
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

// queued is one encoded frame awaiting transmission: the complete wire
// encoding, its sequence number (spool seq when spooling, an in-memory
// ordinal otherwise), and the pooled buffer backing the bytes (nil when the
// encoding outgrew every pool class). The queue owns one buffer reference
// per entry; whoever removes an entry — pop, drop, eviction, ack trim —
// releases it. The pump takes its own reference around each socket write,
// so a concurrent removal can never recycle bytes mid-write.
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
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.JitterSeed == 0 {
		for _, b := range []byte(cfg.Source) {
			cfg.JitterSeed = cfg.JitterSeed*131 + uint64(b)
		}
		cfg.JitterSeed |= 1
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
		metDropInSet:  reg.Counter("fluct_ship_dropped_set_frames_total"),
		metEvicted:    reg.Counter("fluct_ship_cache_evictions_total"),
		metReconnects: reg.Counter("fluct_ship_reconnects_total"),
		metRedirects:  reg.Counter("fluct_ship_redirects_total"),
		metFrames:     reg.Counter("fluct_ship_frames_sent_total"),
		metBytes:      reg.Counter("fluct_ship_bytes_sent_total"),
		metSets:       reg.Counter("fluct_ship_sets_total"),
		metRetrans:    reg.Counter("fluct_ship_retransmitted_frames_total"),
		metAcked:      reg.Gauge("fluct_ship_acked_seq"),
		metSpoolErrs:  reg.Counter("fluct_ship_spool_errors_total"),
		rng:           hashx.SplitMix64{State: cfg.JitterSeed},
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.SpoolDir != "" {
		spl, rec, err := spool.Open(spool.Config{
			Dir:          cfg.SpoolDir,
			SegmentBytes: cfg.SpoolSegmentBytes,
			Epoch:        cfg.SpoolEpoch,
			Registry:     reg,
		})
		if err != nil {
			return nil, err
		}
		s.spl = spl
		s.rec = rec
		s.lastAcked = spl.AckedSeq()
		s.highSent = s.lastAcked
		s.nextSend = s.lastAcked + 1
		s.metAcked.SetInt(int(s.lastAcked))
	}
	return s, nil
}

// Recovery reports what the spool found on disk at New (zero value when
// spooling is disabled or the spool was clean).
func (s *Shipper) Recovery() spool.Recovery { return s.rec }

// Epoch returns the spool numbering epoch (0 without a spool).
func (s *Shipper) Epoch() uint64 {
	if s.spl == nil {
		return 0
	}
	return s.spl.Epoch()
}

// EnqueueFrame queues one frame for shipping. It never blocks. Without a
// spool, a full queue drops the oldest queued frame (drop-oldest
// backpressure, counted). With a spool the frame is written through to
// disk first; queue overflow then only evicts the in-memory cache copy —
// the frame remains replayable — and a frame that cannot be spooled
// (disk failure) is shed and counted rather than allowed to stall the
// workload. Returns false if the shipper is closed.
func (s *Shipper) EnqueueFrame(f wire.Frame) bool {
	return s.enqueueEncoded(f.Type, len(f.Payload)+wire.FrameOverhead,
		func(dst []byte) []byte { return append(dst, f.Payload...) })
}

// enqueueEncoded builds one frame directly inside a pooled buffer —
// BeginFrame, the caller's payload append, EndFrame — and queues those
// exact bytes: the spool append and the socket write both consume the one
// pooled encoding, with no intermediate payload slice. bound is the
// worst-case encoded frame size the buffer is drawn for; if the encoding
// somehow outgrows it (append reallocated away from the pooled buffer),
// the plain slice is queued and the pooled buffer returned.
func (s *Shipper) enqueueEncoded(t wire.Type, bound int, enc func([]byte) []byte) bool {
	buf := s.pool.Get(bound)
	dst := buf.Bytes()[:0]
	dst, start := wire.BeginFrame(dst, t)
	dst = enc(dst)
	dst, err := wire.EndFrame(dst, start)
	if err != nil {
		// Oversized payload: unshippable by construction, shed it visibly
		// rather than poisoning the stream.
		buf.Release()
		s.metDropped.Inc()
		return true
	}
	if cap(dst) > buf.Cap() {
		buf.Release()
		buf = nil
	} else {
		buf.SetLen(len(dst))
	}
	return s.enqueue(dst, buf)
}

// enqueue adds one complete frame encoding (backed by buf when pooled) to
// the queue, applying the spool write-through and the overflow policy.
func (s *Shipper) enqueue(enc []byte, buf *wire.Buf) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		buf.Release()
		return false
	}
	if s.spl != nil {
		seq, err := s.spl.Append(enc)
		if err != nil {
			// The disk failed, not the collector: shed this frame
			// visibly. The in-memory queue must stay contiguous by seq,
			// so an unspooled frame cannot ride along.
			s.metSpoolErrs.Inc()
			s.metDropped.Inc()
			s.noteSetFrameLoss(enc)
			buf.Release()
			return true
		}
		s.queue = append(s.queue, queued{seq: seq, bytes: enc, buf: buf})
		s.noteDepthLocked()
		if over := len(s.queue) - s.cfg.QueueFrames; over > 0 {
			// Evictions shed only the cache copy — the frames replay from
			// disk — so they do not count as set-frame loss.
			for i := 0; i < over; i++ {
				s.queue[i].buf.Release()
			}
			s.queue = s.queue[over:]
			s.metEvicted.Add(uint64(over))
		}
		s.metQueue.SetInt(len(s.queue))
		s.cond.Signal()
		return true
	}
	if len(s.queue) >= s.cfg.QueueFrames {
		n := len(s.queue) - s.cfg.QueueFrames + 1
		for i := 0; i < n; i++ {
			s.noteSetFrameLoss(s.queue[i].bytes)
			s.queue[i].buf.Release()
		}
		s.queue = s.queue[n:]
		s.metDropped.Add(uint64(n))
	}
	s.memSeq++
	s.queue = append(s.queue, queued{seq: s.memSeq, bytes: enc, buf: buf})
	s.noteDepthLocked()
	s.metQueue.SetInt(len(s.queue))
	s.cond.Signal()
	return true
}

// noteDepthLocked tracks the deepest the queue has ever been
// (fluct_ship_queue_high_watermark): a queue that brushes QueueFrames is
// one interleaved large set away from shedding set frames — the PR 8
// footgun DESIGN.md documents — and the high watermark makes that margin
// visible before the first drop.
func (s *Shipper) noteDepthLocked() {
	if d := len(s.queue); d > s.queueHW {
		s.queueHW = d
		s.metQueueHW.SetInt(d)
	}
}

// noteSetFrameLoss counts a shed frame that was part of a trace set
// (symtab/markers/samples/set-end). Losing one of these without a spool
// truncates or wedges the set at the collector, unlike losing a
// standalone telemetry frame — fluct_ship_dropped_set_frames_total is the
// "data actually went missing mid-set" alarm. enc is a complete frame
// encoding; the type byte sits right after the length prefix.
func (s *Shipper) noteSetFrameLoss(enc []byte) {
	if len(enc) < wire.FrameOverhead {
		return
	}
	switch wire.Type(enc[4]) {
	case wire.TSymtab, wire.TMarkers, wire.TSamples, wire.TSetEnd:
		s.metDropInSet.Inc()
	}
}

// QueueDepth returns the number of frames currently held in memory.
func (s *Shipper) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// PendingFrames returns how many frames are not yet delivered: unacked
// spooled frames when spooling, queued frames otherwise.
func (s *Shipper) PendingFrames() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spl != nil {
		return s.spl.NextSeq() - 1 - s.lastAcked
	}
	return uint64(len(s.queue))
}

// Close marks the shipper closed: further enqueues are refused and Run
// returns once everything pending is shipped (or immediately if
// disconnected with nothing pending). The spool itself is closed when Run
// exits.
func (s *Shipper) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Drain blocks until nothing is pending — with a spool, until every
// spooled frame is acknowledged — or ctx is cancelled. The deadline error
// reports how many frames were still pending when it hit, so "drain
// timed out" logs say how far delivery got, not just that it stopped.
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

// nextMem blocks until frames are queued (no-spool mode), the shipper is
// closed with an empty queue, or ctx is cancelled, and snapshots the whole
// queue for one coalesced write: bytes, seqs, and a retained buffer
// reference per frame, so a concurrent drop-oldest cannot recycle a pooled
// buffer while its bytes are on their way into the socket. Entries are
// dequeued via trimSent only after the write reports them complete; a
// frame interrupted by a dying connection is retransmitted on the next
// connection rather than lost (the collector discards the cut half-frame;
// a duplicate, if the cut landed after delivery, is absorbed by the
// integrator's marker-repair path and the confidence model).
func (s *Shipper) nextMem(ctx context.Context) ([][]byte, []uint64, []*wire.Buf, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 {
		if s.closed || ctx.Err() != nil {
			return nil, nil, nil, false
		}
		s.cond.Wait()
	}
	frames := make([][]byte, len(s.queue))
	seqs := make([]uint64, len(s.queue))
	bufs := make([]*wire.Buf, len(s.queue))
	for i := range s.queue {
		frames[i] = s.queue[i].bytes
		seqs[i] = s.queue[i].seq
		bufs[i] = s.queue[i].buf
		s.queue[i].buf.Retain()
	}
	return frames, seqs, bufs, true
}

// trimSent dequeues (and releases) every frame with seq ≤ upto. Matching
// by sequence rather than by count keeps the pop correct when drop-oldest
// removed some of the snapshot's frames while the write was in flight.
func (s *Shipper) trimSent(upto uint64) {
	s.mu.Lock()
	trim := 0
	for trim < len(s.queue) && s.queue[trim].seq <= upto {
		s.queue[trim].buf.Release()
		trim++
	}
	if trim > 0 {
		s.queue = s.queue[trim:]
		s.metQueue.SetInt(len(s.queue))
	}
	s.mu.Unlock()
}

// releaseBufs drops the snapshot references taken by nextMem/nextBatch.
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

// waitWork blocks until there is something to ship (or to collect acks
// for), returning false when the shipper is done.
func (s *Shipper) waitWork(ctx context.Context) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return false
		}
		if s.spl != nil {
			if s.spl.NextSeq()-1 > s.lastAcked {
				return true
			}
		} else if len(s.queue) > 0 {
			return true
		}
		if s.closed {
			return false
		}
		s.cond.Wait()
	}
}

// Run connects, handshakes, and drains the queue to the collector until
// ctx is cancelled or Close is called and everything pending has shipped.
// Connection failures are retried forever with jittered exponential
// backoff; Run only returns an error for unrecoverable configuration
// problems (a refused handshake on a healthy link, e.g. a version
// mismatch). The backoff resets only once a connection has completed the
// handshake and carried at least one frame — a successful dial alone
// proves nothing when the far end accepts and immediately drops.
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
		if err != nil {
			if !s.sleep(ctx, backoff) {
				return ctx.Err()
			}
			backoff = s.bump(backoff)
			s.metReconnects.Inc()
			continue
		}
		if _, err := wire.ClientHandshake(conn, s.cfg.Source); err != nil {
			conn.Close()
			if !s.sleep(ctx, backoff) {
				return ctx.Err()
			}
			backoff = s.bump(backoff)
			s.metReconnects.Inc()
			continue
		}
		err = s.pump(ctx, conn, func() { backoff = s.cfg.BackoffMin })
		conn.Close()
		if err == nil {
			return ctx.Err() // clean shutdown: closed + drained, or ctx done
		}
		s.metReconnects.Inc()
		if !s.sleep(ctx, backoff) {
			return ctx.Err()
		}
		backoff = s.bump(backoff)
	}
}

// pump writes pending frames to conn until everything closes cleanly (nil)
// or the connection fails (non-nil). Each pass coalesces everything queued
// into one vectored write instead of a write per frame. onFirstWrite runs
// after the first frame lands on the socket — the proof of a useful
// connection that resets the reconnect backoff.
func (s *Shipper) pump(ctx context.Context, conn net.Conn, onFirstWrite func()) error {
	if s.spl != nil {
		return s.pumpSpool(ctx, conn, onFirstWrite)
	}
	// Even a fire-and-forget connection can carry control frames back —
	// a draining collector redirects spool-less shippers too. The reader
	// closes the conn on redirect so the writer fails over to the new
	// address.
	ctrlDone := make(chan struct{})
	go func() {
		defer close(ctrlDone)
		sc := wire.NewFrameScanner(conn)
		for {
			f, err := sc.ReadFrame()
			if err != nil {
				return
			}
			if f.Type == wire.TAck {
				continue // nothing to ack against without a spool
			}
			if s.control(f) {
				conn.Close()
				return
			}
		}
	}()
	defer func() {
		conn.Close()
		<-ctrlDone
	}()
	wrote := false
	for {
		frames, seqs, bufs, ok := s.nextMem(ctx)
		if !ok {
			return nil
		}
		n, werr := writeFrames(conn, frames)
		full, bytes := fullyWritten(frames, n)
		if full > 0 {
			if !wrote {
				wrote = true
				onFirstWrite()
			}
			s.metFrames.Add(uint64(full))
			s.metBytes.Add(bytes)
			s.trimSent(seqs[full-1])
		}
		releaseBufs(bufs)
		if werr != nil {
			return werr
		}
	}
}

// errConnDead reports the ack reader observing the connection die while
// the pump was waiting for acknowledgements.
var errConnDead = fmt.Errorf("ship: connection died awaiting acks")

// errAckOvertook reports an ack covering frames this connection never
// carried: the collector already holds them (an earlier ack was lost), and
// since it numbers a connection's frames consecutively from SeqStart, the
// only way to skip them is a new connection that starts past the ack.
var errAckOvertook = fmt.Errorf("ship: ack overtook this connection's numbering")

// connState is the per-connection flag the ack reader uses to wake a pump
// blocked with nothing to send.
type connState struct{ dead bool }

// pumpSpool is the durable pump: transmit spooled frames in sequence
// order starting just past the acked watermark, retransmitting whatever a
// previous connection (or process) left unacknowledged. A SeqStart frame
// opens acked delivery and an ack-reader goroutine advances the watermark.
func (s *Shipper) pumpSpool(ctx context.Context, conn net.Conn, onFirstWrite func()) error {
	s.mu.Lock()
	s.nextSend = s.lastAcked + 1
	first := s.nextSend
	s.mu.Unlock()
	cs := &connState{}
	payload := wire.AppendSeqStart(nil, wire.SeqStart{Epoch: s.spl.Epoch(), FirstSeq: first})
	if err := wire.WriteFrame(conn, wire.Frame{Type: wire.TSeqStart, Payload: payload}); err != nil {
		return err
	}
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		s.readAcks(conn, cs)
	}()
	// Join the ack reader before returning: Run closes the spool after
	// the pump exits, and a still-running reader must not Ack into a
	// closed spool. Closing conn here unblocks its ReadFrame (Run's own
	// Close afterwards is then a no-op).
	defer func() {
		conn.Close()
		<-ackDone
	}()
	wrote := false
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
			if !wrote {
				wrote = true
				onFirstWrite()
			}
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
// sequence order — from the in-memory cache when it still holds the next
// needed sequence, replayed from the spool otherwise (after a restart or
// a cache eviction). Cache-served frames come with a retained buffer
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
			// The ack is already applied (the spool reclaimed); the redial
			// opens with FirstSeq just past it.
			s.mu.Unlock()
			return nil, nil, nil, errAckOvertook
		}
		top := s.spl.NextSeq()
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

// readAcks consumes collector frames on a spooled connection — TAck advances
// the watermark, reclaims spool segments, and trims the cache — until the
// connection dies, then wakes the pump so it can reconnect. Acks are tiny,
// so the scanner's shrink-to-watermark buffer stays in the smallest class
// for the connection's life.
func (s *Shipper) readAcks(conn net.Conn, cs *connState) {
	sc := wire.NewFrameScanner(conn)
	for {
		f, err := sc.ReadFrame()
		if err != nil {
			break
		}
		if f.Type != wire.TAck {
			if s.control(f) {
				break // redirected: drop the conn and redial at the new address
			}
			continue
		}
		a, err := wire.DecodeAck(f.Payload)
		if err != nil || a.Epoch != s.spl.Epoch() {
			continue
		}
		if err := s.spl.Ack(a.Seq); err != nil {
			s.metSpoolErrs.Inc()
		}
		s.applyAck(a.Seq)
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
func (s *Shipper) control(f wire.Frame) (stop bool) {
	if f.Type != wire.TRedirect {
		if s.cfg.OnControlFrame != nil {
			// Own the payload: the scanner's buffer is reused per frame.
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

// applyAck advances the in-memory acked watermark and trims the cache,
// releasing the trimmed entries' pooled buffers.
func (s *Shipper) applyAck(seq uint64) {
	s.mu.Lock()
	if seq > s.lastAcked {
		s.lastAcked = seq
		s.metAcked.SetInt(int(seq))
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
