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
	cfg Config
	rx  durable.Receiver // the sequenced receive loop and its live connections

	mu      sync.Mutex
	sources map[string]*Source

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

	metCRCErrs     *obs.Counter
	metCkpts       *obs.Counter
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
	// shard), so Start can decide whether an epoch change must abort one.
	enqTick   uint64
	applyTick uint64
	applyCond *sync.Cond
	setOpen   bool

	// Acked-delivery state (see internal/durable). Acks only land on a
	// SetEnd or handoff frame, so mid-set integrator state is never
	// serialized. summarizing marks a settled set whose OnSummary call has
	// not returned: a checkpoint waits it out (on applyCond), or a restore
	// would acknowledge the replayed set as duplicates and never emit its
	// summary.
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

	// det is the source's fluctuation detector (nil unless Config.Detect),
	// shard-owned like integ; other goroutines read the snapshot below.
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
	crcErrs := reg.Counter("fluct_collector_crc_errors_total")
	c := &Collector{
		cfg: cfg,
		rx: durable.Receiver{
			Pool:        wire.NewFramePool(reg),
			IdleTimeout: cfg.IdleTimeout,
			Counters: durable.Counters{
				Conns:            reg.Counter("fluct_collector_connections_total"),
				Frames:           reg.Counter("fluct_collector_frames_total"),
				Bytes:            reg.Counter("fluct_collector_bytes_total"),
				Acks:             reg.Counter("fluct_collector_acks_total"),
				Duplicates:       reg.Counter("fluct_collector_duplicate_frames_total"),
				Idle:             reg.Counter("fluct_collector_idle_disconnects_total"),
				Disconnects:      reg.Counter("fluct_collector_disconnects_total"),
				Corrupt:          crcErrs,
				Grammar:          reg.Counter("fluct_collector_grammar_errors_total"),
				CheckpointErrors: reg.Counter("fluct_collector_checkpoint_errors_total"),
			},
		},
		sources:        map[string]*Source{},
		metCRCErrs:     crcErrs,
		metCkpts:       reg.Counter("fluct_collector_checkpoints_total"),
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
	if cfg.CheckpointPath != "" {
		c.rx.Checkpoint = c.Checkpoint
	}
	c.startShards(cfg.IngestShards)
	if cfg.CheckpointPath != "" {
		if err := c.restoreCheckpoint(cfg.CheckpointPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	return c, nil
}

// Serve accepts shipper connections on l until the listener closes
// (durable.Receiver.Serve).
func (c *Collector) Serve(l net.Listener) error { return c.rx.Serve(l, c.HandleConn) }

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
// (stable hash of the ID), the apply-tick condition and the live-connection
// set.
func (c *Collector) initSource(s *Source) {
	s.shard = c.shards[hashx.FNV1a(s.ID)%uint64(len(c.shards))]
	s.applyCond = sync.NewCond(&s.mu)
	s.conns = map[net.Conn]struct{}{}
}

// Source returns the state for id, or nil if the source never connected.
func (c *Collector) Source(id string) *Source {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sources[id]
}

// CloseConns severs every live shipper connection: the crash harness's
// kill switch, the daemon's shutdown path.
func (c *Collector) CloseConns() { c.rx.CloseConns() }

// Close severs every connection, drains the ingest shards (everything
// enqueued is applied, nothing new accepted) and, when checkpointing is
// configured, writes a final checkpoint.
func (c *Collector) Close() error {
	c.CloseConns()
	c.stopShards()
	if c.cfg.CheckpointPath == "" {
		return nil
	}
	return c.Checkpoint()
}

// HandleConn runs one shipper connection through the sequenced receive
// loop (durable.Receiver.Run); frames decode and integrate on the source's
// home ingest shard. Exported for tests and in-process transports.
func (c *Collector) HandleConn(conn net.Conn) {
	c.rx.Run(conn, func(id string) durable.Stream { return c.open(conn, id) })
}

// open binds a handshaken connection to its source, or refuses it with
// TRedirect: every source once this collector has departed (even one it
// never met — a fresh row would fork the moved stream), and a frozen one.
func (c *Collector) open(conn net.Conn, id string) durable.Stream {
	c.mu.Lock()
	if c.departed && !isHandoffPeer(id) {
		members := append([]string(nil), c.departMembers...)
		c.mu.Unlock()
		c.writeRedirect(conn, members)
		return nil
	}
	c.mu.Unlock()
	src := c.source(id)
	src.mu.Lock()
	if src.frozen {
		src.mu.Unlock()
		c.redirectAndClose(src, conn)
		return nil
	}
	src.everConnected = true
	src.conns[conn] = struct{}{}
	src.mu.Unlock()
	return &sourceStream{c: c, src: src, conn: conn}
}

// sourceStream is one shipper connection's side of the receive loop.
type sourceStream struct {
	c    *Collector
	src  *Source
	conn net.Conn
	// handoff marks a THandoffSource whose disposition is owed ahead of
	// its ack: a replay's names dupImport, a fresh one's is src.pendingAck.
	handoff   bool
	dupImport string
}

// Start applies a SeqStart to the source's watermark. A set it orphans is
// aborted through the home shard, ordered behind the frames already
// queued (setOpen mirrors shard-owned state for that decision). A frozen
// source is refused with TRedirect.
func (s *sourceStream) Start(ss wire.SeqStart) (acked, resume uint64, ok bool) {
	src := s.src
	src.mu.Lock()
	if src.frozen {
		src.mu.Unlock()
		s.c.redirectAndClose(src, s.conn)
		return 0, 0, false
	}
	acked, resume, orphaned := src.wm.Start(ss.Epoch, ss.FirstSeq)
	if orphaned && src.setOpen {
		s.c.enqueueLocked(src, ingestItem{abort: true})
	}
	src.mu.Unlock()
	return acked, resume, true
}

// Hand admits a frame and enqueues a fresh one to the home shard in one
// src.mu hold; the shard applies in admission order. SetEnd and the two
// handoff data frames earn acks, so a draining peer's spool trims as each
// import lands durably.
func (s *sourceStream) Hand(f *durable.Frame) (applied func() error, ok bool) {
	src := s.src
	ackWorthy := f.Type == wire.TSetEnd || f.Type == wire.THandoffBegin || f.Type == wire.THandoffSource
	s.handoff, s.dupImport = false, ""
	src.mu.Lock()
	if src.frozen {
		// The drain quiesced the source after the handshake.
		src.mu.Unlock()
		f.Release()
		s.c.redirectAndClose(src, s.conn)
		return nil, false
	}
	adm := f.Admit(&src.wm)
	if adm == durable.Fresh {
		it := ingestItem{view: f.FrameView, epoch: f.Epoch, seq: f.Seq}
		if ackWorthy {
			res := make(chan error, 1)
			it.res, applied = res, func() error { return <-res }
		}
		s.handoff = f.Type == wire.THandoffSource
		s.c.enqueueLocked(src, it)
		src.mu.Unlock()
		return applied, true
	}
	// A duplicate is acked only once everything enqueued so far (its
	// original too, on a reconnect race) is applied.
	tick := src.enqTick
	src.mu.Unlock()
	if adm == durable.Duplicate && f.Type == wire.THandoffSource {
		// A replayed import still owes its peer a disposition; remember
		// which source it named before the frame goes back to the pool.
		if hs, err := wire.DecodeHandoffSource(f.Payload); err == nil {
			s.handoff, s.dupImport = true, hs.Source
		}
	}
	f.Release()
	if adm == durable.Stale || !ackWorthy {
		return nil, true
	}
	return func() error { waitApplied(src, tick); return nil }, true
}

func (s *sourceStream) Sync() (sync.Locker, *durable.Watermark) { return &s.src.mu, &s.src.wm }

// Acking reports what an import did (installed, merged, duplicate) ahead
// of its ack, so the drainer has every disposition by the time the final
// ack releases its Drain.
func (s *sourceStream) Acking(f *durable.Frame) error {
	if !s.handoff {
		return nil
	}
	ack := wire.HandoffAck{Source: s.dupImport, Disposition: wire.HandoffDuplicate}
	if s.dupImport == "" {
		s.src.mu.Lock()
		ack = s.src.pendingAck
		s.src.mu.Unlock()
		if ack.Source == "" {
			return nil
		}
	}
	payload, err := wire.AppendHandoffAck(nil, ack)
	if err != nil {
		return nil
	}
	return wire.WriteFrame(s.conn, wire.Frame{Type: wire.THandoffAck, Payload: payload})
}

// End books a lost link against the source — unless the drain severed it
// (RedirectSource) on purpose.
func (s *sourceStream) End(lost error) bool {
	src := s.src
	src.mu.Lock()
	defer src.mu.Unlock()
	delete(src.conns, s.conn)
	switch {
	case errors.Is(lost, wire.ErrChecksum):
		src.crcErrors++
	case lost == nil || src.frozen:
		return false
	}
	src.disconnects++
	return true
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
		c.finishSet(src, end, false, it.epoch, it.seq)
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
