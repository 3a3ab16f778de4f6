// Package collector is the central end of fleet trace shipping: a daemon
// that accepts N concurrent shippers speaking the wire protocol, tags each
// stream with its source ID, feeds every stream through its own per-source
// core.StreamIntegrator, and merges the per-item results into one
// fleet-wide view — top-K slowest items across hosts, per-source mean
// confidence, and per-source GapSummary health.
//
// This is what turns the paper's single-host diagnosis into a fleet
// diagnosis: one host's "slow item" is noise, the same function slow on
// eight hosts at once is a pattern. The collector never trusts the
// transport — frames are CRC-checked, set totals are reconciled against
// what actually arrived, and a shipper that dies mid-set leaves behind
// low-confidence flushed items rather than wedged state.
package collector

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/durable"
	"repro/internal/hashx"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Config parameterizes a Collector.
type Config struct {
	// TopK is how many fleet-wide slowest items the fleet view carries
	// (default 10).
	TopK int
	// Event selects which hardware event the per-source integrators and
	// gap scans inspect (default UopsRetired, the paper's workhorse).
	Event pmu.Event
	// CheckpointPath, when set, makes delivery acknowledgements durable:
	// per-source state is checkpointed to this file (atomic tmp + rename)
	// before every ack, and New restores from it so a collector restart
	// resumes the fleet view and the dedup watermarks. Empty means acks
	// only promise process-lifetime durability.
	CheckpointPath string
	// IdleTimeout closes a shipper connection that delivers no frame for
	// this long, freeing collector state from half-dead links (≤ 0
	// disables; the fluctd daemon defaults it to 2 minutes).
	IdleTimeout time.Duration
	// IngestShards is how many ingest goroutines decode frames and feed
	// integrators. Each source is pinned to one shard by ID hash, so a
	// source's frames always apply in arrival order; across sources the
	// shards run independently, keeping one slow or huge stream from
	// stalling every other shipper behind a lock. Default:
	// min(GOMAXPROCS, 8).
	IngestShards int
	// Registry receives the collector's self-telemetry (nil: obs.Default()).
	Registry *obs.Registry
	// OnSummary, when set, receives the source's refreshed fleet row every
	// time a set completes (including aborted sets — the cumulative
	// counters moved). This is the shard collector's uplink tap in the
	// two-tier topology. It is invoked on the source's ingest-shard
	// goroutine BEFORE the set's apply result is returned — and therefore
	// before the SetEnd is checkpointed and acknowledged — so a callback
	// that spools the summary durably (agg.Uplink does) guarantees that
	// every set this collector ever acked has its summary either in the
	// uplink spool or already delivered upstream. Keep it fast: it stalls
	// that shard's ingest.
	OnSummary func(wire.FleetSummary)
	// Detect, when non-nil, runs online fluctuation detection: each source
	// gets its own detect.Detector built from this template (Source,
	// FreqHz, Registry, and OnVerdict are filled per source) and fed every
	// integrated item on the source's home-shard goroutine — the same
	// single-goroutine order ingest sharding already guarantees, which is
	// why verdict streams are deterministic at any IngestShards setting.
	// The detector (window, baseline, active events) survives set
	// boundaries and reconnects, like the rest of the Source state.
	Detect *detect.Config
	// OnVerdict receives every emitted verdict, synchronously on the
	// source's ingest-shard goroutine.
	OnVerdict func(detect.Verdict)
	// OnVerdicts receives the source's refreshed verdict snapshot whenever
	// its verdict state changes (an event fired or resolved) — the uplink
	// tap that ships TVerdicts frames in the two-tier topology. Same
	// goroutine and same keep-it-fast contract as OnSummary.
	OnVerdicts func(wire.VerdictSet)
}

// Collector accepts shipper connections and maintains the fleet state.
type Collector struct {
	cfg  Config
	pool *wire.FramePool // connection reads land in pooled frame buffers

	mu      sync.Mutex
	sources map[string]*Source
	conns   map[net.Conn]struct{}

	shards    []*shard
	shutShard sync.Once

	ckptMu sync.Mutex // serializes checkpoint file writes

	// Drain/import lifecycle (guarded by mu; see handoff.go). draining
	// tracks this collector's own planned departure; imports tracks
	// in-progress handoffs arriving from draining peers, keyed by the
	// peer stream's source ID.
	draining   bool
	drainTotal int
	drainDone  int
	// departed flips once the drain has fully handed off: every handshake
	// from then on — including for sources this collector never met, e.g.
	// a shipper that slept through the drain and redials its old owner —
	// is answered with TRedirect(departMembers) instead of a fresh row
	// that would fork the moved stream.
	departed      bool
	departMembers []string
	imports       map[string]*importProgress

	metConns       *obs.Counter
	metFrames      *obs.Counter
	metBytes       *obs.Counter
	metCRCErrs     *obs.Counter
	metGrammar     *obs.Counter
	metDiscon      *obs.Counter
	metIdleDisc    *obs.Counter
	metDups        *obs.Counter
	metAcks        *obs.Counter
	metCkpts       *obs.Counter
	metCkptErrs    *obs.Counter
	metItems       *obs.Counter
	metSets        *obs.Counter
	metSources     *obs.Gauge
	metConfHist    *obs.Histogram
	metShardFrames *obs.Counter
	metShardDepth  *obs.Gauge
	metShardImbal  *obs.Gauge
	metImports     *obs.Counter
	metImportDups  *obs.Counter
	metImportErrs  *obs.Counter
	metRedirects   *obs.Counter
}

// Source is the per-shipper state. It survives reconnects: a shipper that
// loses its link mid-set resumes the same integrator on the next
// connection, so the cut shows up as degraded items, not lost state.
type Source struct {
	// ID is the source tag from the handshake.
	ID string

	// shard is the source's home ingest shard (assigned by ID hash, fixed
	// for the source's lifetime): all of this source's frames decode and
	// integrate on that shard's goroutine, which is what lets the in-set
	// state below run without a lock.
	shard *shard

	mu sync.Mutex

	// Ingest ordering. Every frame enqueued to the shard takes the next
	// tick; the shard publishes applyTick (and wakes applyCond) as it
	// finishes each one, so a waiter can block until everything enqueued up
	// to a point has been applied — the SetEnd checkpoint/ack path needs
	// exactly that. setOpen mirrors "a set is in flight" at enqueue time
	// (the connection goroutine cannot look at integ, which belongs to the
	// shard), so seqStart can decide whether an epoch change must abort one.
	enqTick   uint64
	applyTick uint64
	applyCond *sync.Cond
	setOpen   bool

	// Acked-delivery state of sequenced connections (see internal/durable
	// for the rules). Acks only ever land on a SetEnd or handoff frame, so
	// retransmission always restarts at a set boundary and mid-set
	// integrator state never needs to be serialized. summarizing marks a
	// settled set whose OnSummary call has not returned yet: a checkpoint
	// waits it out (on applyCond), because a row restored with the set's
	// watermark acknowledges the shipper's replay as duplicates and the
	// summary would never be emitted again.
	wm          durable.Watermark
	summarizing bool

	// Current-set decoding state. freq and syms are written by the shard
	// under mu (checkpoint and the fleet view read them); integ, scan, and
	// curItem are touched ONLY by the home shard's goroutine — the hot
	// decode + integrate path holds no lock at all. Nothing per-record
	// outlives the frame it arrived in: a record goes to the integrator and
	// the scan, which keeps a count and (for a sample) its timestamp.
	freq    uint64
	syms    *symtab.Table
	integ   *core.StreamIntegrator
	scan    trace.GapScan // the in-flight set's health scan, buffers reused set to set
	curItem []core.Item

	// det is the source's fluctuation detector (nil unless Config.Detect).
	// Shard-owned like integ — Update runs only on the home-shard
	// goroutine; the published snapshot below is what other goroutines
	// read.
	det *detect.Detector

	// Published verdict snapshot (guarded by mu): refreshed by the shard
	// goroutine whenever the detector's verdict state changes.
	verdicts       []detect.Verdict
	activeVerdicts int

	// Last-completed-set results.
	items []core.Item
	gaps  trace.Gaps
	diag  core.Diagnostics

	// Cumulative accounting.
	sets          uint64
	abortedSets   uint64
	frames        uint64
	crcErrors     uint64
	disconnects   uint64
	lostMarkers   uint64
	lostSamples   uint64
	confSum       float64
	confN         int
	lastMeanConf  float64
	lastDegraded  bool
	everConnected bool

	// Drain/handoff state (guarded by mu; see handoff.go).
	//
	// internal marks a shard-to-shard handoff peer stream
	// (wire.HandoffPeerPrefix): kept out of the fleet view and the uplink
	// taps, kept IN the checkpoint — the peer stream's dedup watermark is
	// what recognizes a replayed handoff. frozen refuses new frames and
	// answers connections with TRedirect(redirect); handedOff additionally
	// records that the state has been staged durably for its new owner, so
	// both survive a restart via the checkpoint. conns tracks the live
	// connections currently carrying this source so a drain can push the
	// redirect instead of waiting for shippers to notice. The imported*
	// trio is the handoff dedup marker on the receiving side; pendingAck
	// carries one import disposition from the shard goroutine back to the
	// peer connection goroutine (one in flight by construction — the
	// connection blocks on the apply result).
	internal      bool
	frozen        bool
	handedOff     bool
	redirect      []string
	conns         map[net.Conn]struct{}
	imported      bool
	importedEpoch uint64
	importedSeq   uint64
	pendingAck    wire.HandoffAck
}

// New builds a collector, restoring per-source state from
// cfg.CheckpointPath when the file exists. A checkpoint that cannot be
// read or parsed returns an error rather than silently starting empty —
// an operator who configured durability should never lose it to a typo.
func New(cfg Config) (*Collector, error) {
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	if cfg.IngestShards <= 0 {
		cfg.IngestShards = min(runtime.GOMAXPROCS(0), 8)
	}
	if cfg.Detect != nil {
		// Validate the template now: a bad window/segment combination should
		// fail daemon startup, not silently disable per-source detection.
		if _, err := detect.New(*cfg.Detect); err != nil {
			return nil, err
		}
	}
	c := &Collector{
		cfg:            cfg,
		pool:           wire.NewFramePool(reg),
		sources:        map[string]*Source{},
		conns:          map[net.Conn]struct{}{},
		metConns:       reg.Counter("fluct_collector_connections_total"),
		metFrames:      reg.Counter("fluct_collector_frames_total"),
		metBytes:       reg.Counter("fluct_collector_bytes_total"),
		metCRCErrs:     reg.Counter("fluct_collector_crc_errors_total"),
		metGrammar:     reg.Counter("fluct_collector_grammar_errors_total"),
		metDiscon:      reg.Counter("fluct_collector_disconnects_total"),
		metIdleDisc:    reg.Counter("fluct_collector_idle_disconnects_total"),
		metDups:        reg.Counter("fluct_collector_duplicate_frames_total"),
		metAcks:        reg.Counter("fluct_collector_acks_total"),
		metCkpts:       reg.Counter("fluct_collector_checkpoints_total"),
		metCkptErrs:    reg.Counter("fluct_collector_checkpoint_errors_total"),
		metItems:       reg.Counter("fluct_collector_items_total"),
		metSets:        reg.Counter("fluct_collector_sets_total"),
		metSources:     reg.Gauge("fluct_collector_sources"),
		metConfHist:    reg.Histogram("fluct_collector_item_confidence_x1000"),
		metShardFrames: reg.Counter("fluct_collector_shard_frames_total"),
		metShardDepth:  reg.Gauge("fluct_collector_shard_queue_depth"),
		metShardImbal:  reg.Gauge("fluct_collector_shard_imbalance_x1000"),
		metImports:     reg.Counter("fluct_collector_handoff_imports_total"),
		metImportDups:  reg.Counter("fluct_collector_handoff_duplicates_total"),
		metImportErrs:  reg.Counter("fluct_collector_handoff_errors_total"),
		metRedirects:   reg.Counter("fluct_collector_redirects_sent_total"),
		imports:        map[string]*importProgress{},
	}
	c.startShards(cfg.IngestShards)
	if cfg.CheckpointPath != "" {
		if err := c.restoreCheckpoint(cfg.CheckpointPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	return c, nil
}

// Serve accepts shipper connections on l until the listener closes. Each
// connection is handled on its own goroutine; Serve itself returns the
// accept error (net.ErrClosed after a clean Close of the listener).
func (c *Collector) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go c.HandleConn(conn)
	}
}

// source returns (creating if needed) the state for id.
func (c *Collector) source(id string) *Source {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sources[id]
	if s == nil {
		s = &Source{ID: id, internal: isHandoffPeer(id)}
		c.initSource(s)
		c.sources[id] = s
		c.metSources.SetInt(len(c.sources))
	}
	return s
}

// initSource wires a source into the ingest machinery: its home shard
// (stable hash of the ID) and the apply-tick condition.
func (c *Collector) initSource(s *Source) {
	s.shard = c.shards[hashx.FNV1a(s.ID)%uint64(len(c.shards))]
	s.applyCond = sync.NewCond(&s.mu)
}

// Source returns the state for id, or nil if the source never connected.
func (c *Collector) Source(id string) *Source {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sources[id]
}

// CloseConns severs every live shipper connection. The crash-recovery
// harness uses it (with the listener closed) to kill a collector mid-set;
// the daemon uses it on shutdown.
func (c *Collector) CloseConns() {
	c.mu.Lock()
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
}

// Close severs every connection, drains the ingest shards (everything
// already enqueued is applied, nothing new is accepted), and, when
// checkpointing is configured, writes a final checkpoint so nothing
// acknowledged outlives the process only in memory.
func (c *Collector) Close() error {
	c.CloseConns()
	c.stopShards()
	if c.cfg.CheckpointPath == "" {
		return nil
	}
	return c.Checkpoint()
}

func (c *Collector) trackConn(conn net.Conn, add bool) {
	c.mu.Lock()
	if add {
		c.conns[conn] = struct{}{}
	} else {
		delete(c.conns, conn)
	}
	c.mu.Unlock()
}

// HandleConn runs one shipper connection to completion: handshake, then
// frames until the connection dies. Exported so tests and in-process
// transports can drive the collector without a listener.
//
// The connection goroutine only reads frames (each into a pooled buffer)
// and runs the dedup/ack bookkeeping under src.mu; decoding and integrating
// happen on the source's home ingest shard (see shard.go).
func (c *Collector) HandleConn(conn net.Conn) {
	defer conn.Close()
	c.trackConn(conn, true)
	defer c.trackConn(conn, false)
	c.metConns.Inc()
	srcID, _, err := wire.ServerHandshake(conn)
	if err != nil {
		return
	}
	c.mu.Lock()
	if c.departed && !isHandoffPeer(srcID) {
		// Fully drained: this collector owns nothing anymore. Redirect every
		// handshake — even for sources it never met, like a shipper that
		// slept through the drain and redialed its old owner — rather than
		// create a fresh row that would fork the moved stream.
		members := append([]string(nil), c.departMembers...)
		c.mu.Unlock()
		c.writeRedirect(conn, members)
		return
	}
	c.mu.Unlock()
	src := c.source(srcID)
	src.mu.Lock()
	if src.frozen {
		// This source's state has moved (or is moving): do not accept a
		// single frame for it. Tell the shipper where the fleet lives now
		// and hang up — a deliberate refusal, not a disconnect.
		members := append([]string(nil), src.redirect...)
		src.mu.Unlock()
		c.writeRedirect(conn, members)
		return
	}
	src.everConnected = true
	if src.conns == nil {
		src.conns = map[net.Conn]struct{}{}
	}
	src.conns[conn] = struct{}{}
	src.mu.Unlock()
	defer func() {
		src.mu.Lock()
		delete(src.conns, conn)
		src.mu.Unlock()
	}()

	var cs durable.Numbering
	rd := c.pool.NewReader(conn)
	for {
		if c.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(c.cfg.IdleTimeout))
		}
		var f wire.FrameView
		f, err = rd.Next()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// Nothing arrived for a full IdleTimeout: reclaim the
				// connection. The shipper redials when it has work.
				c.metIdleDisc.Inc()
				return
			}
			if errors.Is(err, wire.ErrChecksum) {
				// The damaged frame consumed a sequence number whose contents
				// we cannot account for, but the loss is recoverable: drop the
				// link and the shipper retransmits everything past the resume
				// line.
				c.metCRCErrs.Inc()
				c.metDiscon.Inc()
				src.mu.Lock()
				src.crcErrors++
				src.disconnects++
				src.mu.Unlock()
				return
			}
			// Cut mid-frame or closed: the shipper will reconnect and the
			// per-source state picks up where it left off. A frozen source's
			// connections are severed by the drain itself (RedirectSource) —
			// deliberate, not link damage, so not a disconnect.
			if err != io.EOF {
				src.mu.Lock()
				if !src.frozen {
					src.disconnects++
					c.metDiscon.Inc()
				}
				src.mu.Unlock()
			}
			return
		}
		c.metFrames.Inc()
		c.metBytes.Add(uint64(len(f.Payload)) + 9)

		if f.Type == wire.TSeqStart {
			ss, derr := wire.DecodeSeqStart(f.Payload)
			f.Release()
			if derr != nil {
				// A malformed SeqStart leaves the numbering undefined;
				// nothing on this connection can be trusted to a sequence.
				c.metCRCErrs.Inc()
				return
			}
			ack, frozen := c.seqStart(src, ss)
			if frozen {
				c.redirectAndClose(src, conn)
				return
			}
			cs.Begin(ss.Epoch, ss.FirstSeq)
			if wire.WriteAck(conn, ack) != nil {
				return
			}
			c.metAcks.Inc()
			continue
		}

		// Every data frame consumes the next number. Admission and the shard
		// enqueue happen under one src.mu hold — two live connections for the
		// same source (a stale link draining kernel-buffered frames while the
		// reconnected shipper resumes) must never both admit a number and
		// double-apply a frame. The ordered shard queue then applies admitted
		// frames in admission order.
		seq, ok := cs.Take()
		if !ok {
			// A data frame before any SeqStart has no number: the peer does
			// not speak the grammar, and nothing it sends can be deduplicated
			// or acknowledged.
			f.Release()
			c.metGrammar.Inc()
			return
		}
		it := ingestItem{view: f}
		// Ack-worthy frames run the durability+ack path below. SetEnd is
		// the classic one; the two handoff data frames join it so a
		// draining peer's spool trims as each import lands durably.
		ackWorthy := f.Type == wire.TSetEnd ||
			f.Type == wire.THandoffBegin || f.Type == wire.THandoffSource
		src.mu.Lock()
		if src.frozen {
			// The drain quiesced this source (possibly after our handshake).
			// Refuse the frame and point the shipper at the new owner — a
			// deliberate refusal, not a disconnect.
			src.mu.Unlock()
			f.Release()
			c.redirectAndClose(src, conn)
			return
		}
		adm := src.wm.Admit(cs.Epoch, seq)
		var tick uint64
		switch adm {
		case durable.Stale:
			// Another connection opened a newer spool generation for this
			// source; applying this link's frames would corrupt the new
			// generation's dedup watermark.
			src.mu.Unlock()
			f.Release()
			c.metDiscon.Inc()
			return
		case durable.Fresh:
			if ackWorthy {
				// The ack path below must know the apply outcome.
				it.wait = &applyWait{res: make(chan error, 1), epoch: cs.Epoch, seq: seq}
			}
			c.enqueueLocked(src, it)
		case durable.Duplicate:
			// Everything enqueued so far (including, on a reconnect race,
			// the original of this duplicate) must be applied before an
			// ack-worthy frame below may checkpoint and ack.
			tick = src.enqTick
		}
		src.mu.Unlock()

		dup := adm == durable.Duplicate
		var dupHandoff string
		if dup {
			if f.Type == wire.THandoffSource {
				// A replayed handoff import still owes its peer a
				// disposition; remember which source it named before the
				// frame bytes go back to the pool.
				if hs, derr := wire.DecodeHandoffSource(f.Payload); derr == nil {
					dupHandoff = hs.Source
				}
			}
			f.Release()
			// Retransmission of a frame already applied (the ack for it was
			// lost, or a checkpoint failure withheld it): skip the
			// integrator, but an ack-worthy frame still runs the
			// durability+ack path — the shipper is replaying precisely
			// because it never saw that ack.
			c.metDups.Inc()
		}
		if !ackWorthy {
			continue
		}
		if dup {
			waitApplied(src, tick)
		} else if ferr := <-it.wait.res; ferr != nil {
			// The frame arrived intact (CRC passed) but its payload is
			// undecodable; retransmitting identical bytes cannot help, so
			// the sequence number is consumed, the frame dropped (and
			// counted by the shard), and no ack sent.
			continue
		}

		// Ack-after-durability: the frame is applied; persist before
		// acknowledging so a crash between the two costs the shipper only a
		// retransmission, never us an acked-but-lost set.
		src.mu.Lock()
		if dup {
			// Everything numbered ≤ seq has been applied or dropped for
			// good, so the state reflects it even when the original's own
			// Settle never ran (its payload was undecodable).
			src.wm.Settle(cs.Epoch, seq)
		}
		isDurable := seq <= src.wm.Acked
		src.mu.Unlock()
		if !isDurable {
			if c.cfg.CheckpointPath != "" {
				if err := c.Checkpoint(); err != nil {
					// Without durability the ack would lie; withhold it.
					// The shipper keeps the set spooled and retransmits;
					// the dup path re-attempts the checkpoint once it heals.
					c.metCkptErrs.Inc()
					continue
				}
			}
			src.mu.Lock()
			src.wm.Commit(cs.Epoch, seq)
			src.mu.Unlock()
		}
		if f.Type == wire.THandoffSource {
			// Alongside the transport ack, report what the import actually
			// did (installed/merged/duplicate) so the drainer can account
			// per source. Written BEFORE the transport ack: the shipper's
			// ack-reader dispatches frames in order, so the drainer is
			// guaranteed to have every disposition by the time the final
			// ack releases its Drain.
			ack := wire.HandoffAck{Source: dupHandoff, Disposition: wire.HandoffDuplicate}
			if !dup {
				src.mu.Lock()
				ack = src.pendingAck
				src.mu.Unlock()
			}
			if ack.Source != "" {
				if payload, aerr := wire.AppendHandoffAck(nil, ack); aerr == nil {
					if wire.WriteFrame(conn, wire.Frame{Type: wire.THandoffAck, Payload: payload}) != nil {
						return
					}
				}
			}
		}
		if wire.WriteAck(conn, wire.Ack{Epoch: cs.Epoch, Seq: seq, Applied: seq}) != nil {
			return
		}
		c.metAcks.Inc()
	}
}

// seqStart applies a connection's TSeqStart to the source's acked-delivery
// state and returns the reply: the durable line the shipper may reclaim to
// and the line it resumes past. A set orphaned by the renumbering is aborted
// through the home shard (as an abort entry) so the abort stays ordered with
// the frames already queued; the setOpen flag is the connection-side mirror
// of "a set is in flight" that makes the decision possible without touching
// shard-owned state.
func (c *Collector) seqStart(src *Source, ss wire.SeqStart) (ack wire.Ack, frozen bool) {
	src.mu.Lock()
	defer src.mu.Unlock()
	if src.frozen {
		return wire.Ack{}, true
	}
	acked, resume, orphaned := src.wm.Start(ss.Epoch, ss.FirstSeq)
	if orphaned && src.setOpen {
		c.enqueueLocked(src, ingestItem{abort: true})
	}
	return wire.Ack{Epoch: ss.Epoch, Seq: acked, Applied: resume}, false
}

// frame applies one verified frame to the source's state, synchronously:
// it is routed through the home shard (so direct callers — tests,
// in-process feeds — stay ordered with connection ingest) and waits for
// the apply result.
func (c *Collector) frame(src *Source, f wire.Frame) error {
	res := make(chan error, 1)
	src.mu.Lock()
	c.enqueueLocked(src, ingestItem{view: wire.FrameView{Type: f.Type, Payload: f.Payload}, wait: &applyWait{res: res}})
	src.mu.Unlock()
	return <-res
}

// applyFrame applies one verified frame to the source's in-set state. It
// runs ONLY on the source's home-shard goroutine, which owns integ/scan/
// curItem outright — the decode (zero-copy record iterators over the
// pooled frame bytes) and the integrator push take no lock; only the
// fields the checkpoint and fleet view read (freq, syms, and the
// finishSet publication) are written under src.mu.
func (c *Collector) applyFrame(src *Source, it *ingestItem) error {
	f := it.view
	switch f.Type {
	case wire.TSymtab:
		freq, tab, err := wire.DecodeSymtab(f.Payload)
		if err != nil {
			return err
		}
		if src.integ != nil {
			// The previous set never saw its SetEnd (dropped frame or a
			// shipper restart): finalize what arrived rather than wedge.
			c.finishSet(src, wire.SetEnd{}, true, 0, 0)
		}
		src.mu.Lock()
		src.freq, src.syms = freq, tab
		src.mu.Unlock()
		src.scan.Reset(c.cfg.Event)
		src.curItem = src.curItem[:0]
		integ, err := core.NewStreamIntegrator(tab, core.Options{Event: c.cfg.Event}, func(*core.Item) {})
		if err != nil {
			return err
		}
		if c.cfg.Detect != nil && src.det == nil {
			// First set from this source: build its detector from the
			// template. Errors here are configuration errors caught by the
			// daemon at startup (newDetector validates the template), so a
			// per-source failure only disables detection for the source.
			src.det, _ = c.newDetector(src.ID, freq)
		}
		integ.OnItem = func(it *core.Item) {
			// Copy out: the integrator recycles, the fleet view retains.
			cp := *it
			cp.Funcs = append([]core.FuncSpan(nil), it.Funcs...)
			src.curItem = append(src.curItem, cp)
			if src.det != nil && src.det.Update(it) {
				c.publishVerdicts(src)
			}
			integ.Recycle(it)
		}
		src.integ = integ
		return nil
	case wire.TRecords:
		if src.integ == nil {
			return fmt.Errorf("collector: records before symtab")
		}
		it := wire.IterRecords(f.Payload)
		var m trace.Marker
		var sm pmu.Sample
		for {
			switch it.Next(&m, &sm) {
			case wire.TMarkers:
				src.scan.Marker(m)
				src.integ.Marker(m)
			case wire.TSamples:
				src.scan.Sample(&sm)
				src.integ.Sample(sm)
			default:
				return it.Err()
			}
		}
	case wire.TSetEnd:
		if src.integ == nil {
			return fmt.Errorf("collector: setend before symtab")
		}
		end, err := wire.DecodeSetEnd(f.Payload)
		if err != nil {
			return err
		}
		epoch, seq := it.number()
		c.finishSet(src, end, false, epoch, seq)
		return nil
	case wire.THandoffBegin:
		return c.applyHandoffBegin(src, f.Payload)
	case wire.THandoffSource:
		return c.applyHandoffSource(src, f.Payload)
	default:
		return fmt.Errorf("collector: unexpected %s frame", f.Type)
	}
}

// finishSet closes the in-flight set: flush the integrator, run the gap
// scan, reconcile declared vs received totals, and publish the result as
// the source's last completed set. Runs on the home-shard goroutine; the
// flush and the gap scan work on shard-owned state without a lock, only
// the publication takes src.mu. (epoch, seq) number the SetEnd that closed
// the set (zero for an abort or a synchronous feed): the watermark
// settles in the same hold that bumps the accounting, so no snapshot can
// hold one without the other.
func (c *Collector) finishSet(src *Source, declared wire.SetEnd, aborted bool, epoch, seq uint64) {
	src.integ.Close()
	diag := src.integ.Diag()
	src.integ = nil

	gaps := src.scan.Summary()
	var lostMarkers, lostSamples uint64
	if got := uint64(src.scan.Markers()); declared.Markers > got {
		lostMarkers = declared.Markers - got
	}
	if got := uint64(src.scan.Samples()); declared.Samples > got {
		lostSamples = declared.Samples - got
	}
	var confSum float64
	for i := range src.curItem {
		confSum += src.curItem[i].Confidence
		c.metConfHist.Record(uint64(src.curItem[i].Confidence * 1000))
	}
	n := len(src.curItem)

	src.mu.Lock()
	src.diag = diag
	src.items = append(src.items[:0], src.curItem...)
	src.gaps = gaps
	src.lostMarkers += lostMarkers
	src.lostSamples += lostSamples
	src.confSum += confSum
	src.confN += n
	if n > 0 {
		src.lastMeanConf = confSum / float64(n)
	} else {
		src.lastMeanConf = 0
	}
	src.lastDegraded = gaps.Degraded() || src.lostMarkers+src.lostSamples > 0
	src.sets++
	if aborted {
		src.abortedSets++
	}
	src.wm.Settle(epoch, seq)
	var fs wire.FleetSummary
	if c.cfg.OnSummary != nil {
		sum := src.summaryLocked()
		fs = wire.FleetSummary{
			Source:      sum.ID,
			FreqHz:      src.freq,
			Sets:        sum.Sets,
			AbortedSets: sum.AbortedSets,
			LostMarkers: sum.LostMarkers,
			LostSamples: sum.LostSamples,
			CRCErrors:   sum.CRCErrors,
			Disconnects: sum.Disconnects,
			MeanConf:    sum.MeanConfidence,
			Degraded:    sum.Degraded,
			GapLine:     sum.GapLine,
			Items:       append([]core.Item(nil), src.items...),
		}
		src.summarizing = true
	}
	src.mu.Unlock()

	src.curItem = src.curItem[:0]

	if c.cfg.OnSummary != nil {
		// Still on the shard goroutine: the callback completes before this
		// frame's apply result is delivered, so the SetEnd checkpoint+ack
		// happens-after whatever durability the callback establishes.
		c.cfg.OnSummary(fs)
		src.mu.Lock()
		src.summarizing = false
		src.applyCond.Broadcast()
		src.mu.Unlock()
	}

	c.metSets.Inc()
	c.metItems.Add(uint64(n))
}

// newDetector clones the Detect template for one source.
func (c *Collector) newDetector(id string, freq uint64) (*detect.Detector, error) {
	dcfg := *c.cfg.Detect
	dcfg.Source = id
	dcfg.FreqHz = freq
	if dcfg.Registry == nil {
		dcfg.Registry = c.cfg.Registry
	}
	dcfg.OnVerdict = c.cfg.OnVerdict
	return detect.New(dcfg)
}

// publishVerdicts copies the detector's verdict snapshot into the fields
// the fleet view reads, and feeds the uplink tap. Runs on the source's
// home-shard goroutine (the detector's single-goroutine contract).
func (c *Collector) publishVerdicts(src *Source) {
	st := src.det.State()
	src.mu.Lock()
	src.verdicts = st.Recent
	src.activeVerdicts = st.Active
	src.mu.Unlock()
	if c.cfg.OnVerdicts != nil {
		c.cfg.OnVerdicts(wire.VerdictSet{
			Source:   src.ID,
			Active:   uint32(st.Active),
			Verdicts: st.Recent,
		})
	}
}

// Verdicts returns the source's published verdict snapshot: the unresolved
// change-event count and the recent ranked verdicts, oldest first.
func (s *Source) Verdicts() (active int, verdicts []detect.Verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeVerdicts, append([]detect.Verdict(nil), s.verdicts...)
}

// Epoch returns the source's numbering epoch (0 before its first
// connection).
func (s *Source) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wm.Epoch
}

// LastAcked returns the highest sequence number acknowledged to the source.
func (s *Source) LastAcked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wm.Acked
}

// Sets returns how many complete trace sets the source has delivered.
func (s *Source) Sets() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sets
}

// SetOpen reports whether a trace set is currently in flight from the
// source. The drain-chaos harness uses it to start a drain provably
// mid-set, so the quiesce path (wait for the set boundary before
// freezing) is what gets exercised rather than an idle freeze.
func (s *Source) SetOpen() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.setOpen
}

// Items returns a copy of the source's last completed set's items, in the
// offline Integrate order: ascending (BeginTSC, core).
func (s *Source) Items() []core.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]core.Item(nil), s.items...)
	sortItems(out)
	return out
}

// Diag returns the integration diagnostics of the last completed set.
func (s *Source) Diag() core.Diagnostics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diag
}

// FreqHz returns the source's TSC frequency (0 before the first symtab).
func (s *Source) FreqHz() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.freq
}
