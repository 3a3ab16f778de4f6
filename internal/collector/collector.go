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
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Config parameterizes a Collector.
type Config struct {
	// TopK is how many fleet-wide slowest items the fleet view carries
	// (default 10).
	TopK int
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
	// Registry receives the collector's self-telemetry (nil: obs.Default()).
	Registry *obs.Registry
	// OnSummary, when set, receives the source's refreshed fleet row every
	// time a set completes (including aborted sets — the cumulative
	// counters moved). This is the shard collector's uplink tap in the
	// two-tier topology. It runs inside the apply of the frame that closed
	// the set, under the source's apply mutex — and therefore before the
	// SetEnd is checkpointed and acknowledged — so a callback that spools
	// the summary durably (agg.Uplink does) guarantees that every set this
	// collector ever acked has its summary either in the uplink spool or
	// already delivered upstream. Keep it fast: while it runs, that
	// source's connection reads nothing and a checkpoint waits.
	OnSummary func(wire.FleetSummary)
	// Detect, when non-nil, runs online fluctuation detection: each source
	// gets its own detect.Detector built from this template (Source,
	// FreqHz, Registry, and OnVerdict are filled per source) and fed every
	// integrated item under the source's apply mutex — one caller at a
	// time, in the source's admission order, across reconnects too — which
	// is why verdict streams are deterministic however many sources ship
	// at once. The detector (window, baseline, active events) survives set
	// boundaries and reconnects, like the rest of the Source state.
	Detect *detect.Config
	// OnVerdict receives every emitted verdict, synchronously, under the
	// source's apply mutex.
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

	closed atomic.Bool // set by Close; read under a source's apply mutex

	ckptMu   sync.Mutex       // serializes checkpoint file writes
	ckptFile durable.JSONFile // the checkpoint's kept buffer; guarded by ckptMu

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

	metCRCErrs    *obs.Counter
	metCkpts      *obs.Counter
	metItems      *obs.Counter
	metSets       *obs.Counter
	metSources    *obs.Gauge
	metConfHist   *obs.Histogram
	metImports    *obs.Counter
	metImportDups *obs.Counter
	metImportErrs *obs.Counter
	metRedirects  *obs.Counter
}

// Source is the per-shipper state. It survives reconnects: a shipper that
// loses its link mid-set resumes the same integrator on the next
// connection, so the cut shows up as degraded items, not lost state.
//
// Lock order: applyMu → mu. Every change to the source's in-set state —
// a frame's admit and apply, Start's abort of an orphaned set, a drain's
// forced set boundary — runs under applyMu, on whichever goroutine asked
// for it (a frame applies on the connection goroutine that read it), so
// the source applies in admission order by construction. mu guards what
// other goroutines read: the watermark, the published results, the
// accounting.
type Source struct {
	// ID is the source tag from the handshake.
	ID string

	applyMu sync.Mutex
	mu      sync.Mutex

	// Acked-delivery state (see internal/durable). Acks only land on a
	// SetEnd or handoff frame, so mid-set integrator state is never
	// serialized.
	wm durable.Watermark

	// Current-set decoding state, touched only under applyMu — the hot
	// decode + integrate path takes no other lock. curFreq is the open
	// set's clock (its TSymtab); finishSet publishes it with the set's
	// items. Nothing per-record outlives the frame it arrived in: a record
	// goes to the integrator and the scan, which keeps a count and (for a
	// sample) its timestamp. A set is open while integ is non-nil.
	curFreq uint64
	integ   *core.StreamIntegrator
	scan    trace.GapScan // the in-flight set's health scan, buffers reused set to set
	curItem []core.Item
	// sumBuf is the last set's items encoded by finishSet as the
	// TFleetSummary payload, reused set to set; sumUnread marks that
	// summary does not yet hold a copy of it (payloadLocked).
	sumBuf    []byte
	sumUnread bool

	// det is the source's fluctuation detector (nil unless Config.Detect),
	// guarded by applyMu like integ; other goroutines read the snapshot
	// below.
	det *detect.Detector

	// Published verdict snapshot (guarded by mu): refreshed whenever the
	// detector's verdict state changes.
	verdicts       []detect.Verdict
	activeVerdicts int

	// Last-completed-set results. freq is the clock its items were
	// integrated against: a row written mid-set still pairs the items with
	// their own clock. summary is the same items as the TFleetSummary
	// payload the checkpoint writes and a handoff carries: an exact-size
	// copy of sumBuf taken on first read (or installed with a restored or
	// imported row), never appended into; summaryErr is why the last set's
	// items did not encode, which fails every checkpoint and export until
	// the next set.
	freq       uint64
	items      []core.Item
	summary    []byte
	summaryErr error
	gaps       trace.Gaps
	diag       core.Diagnostics

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
	// trio is the handoff dedup marker on the receiving side. frozen is
	// only ever set under applyMu, so an apply that found it clear runs to
	// completion unfrozen.
	internal      bool
	frozen        bool
	handedOff     bool
	redirect      []string
	conns         map[net.Conn]struct{}
	imported      bool
	importedEpoch uint64
	importedSeq   uint64
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
		sources:       map[string]*Source{},
		metCRCErrs:    crcErrs,
		metCkpts:      reg.Counter("fluct_collector_checkpoints_total"),
		metItems:      reg.Counter("fluct_collector_items_total"),
		metSets:       reg.Counter("fluct_collector_sets_total"),
		metSources:    reg.Gauge("fluct_collector_sources"),
		metConfHist:   reg.Histogram("fluct_collector_item_confidence_x1000"),
		metImports:    reg.Counter("fluct_collector_handoff_imports_total"),
		metImportDups: reg.Counter("fluct_collector_handoff_duplicates_total"),
		metImportErrs: reg.Counter("fluct_collector_handoff_errors_total"),
		metRedirects:  reg.Counter("fluct_collector_redirects_sent_total"),
		imports:       map[string]*importProgress{},
	}
	if cfg.CheckpointPath != "" {
		c.rx.Checkpoint = c.Checkpoint
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
		s = &Source{ID: id, internal: isHandoffPeer(id), conns: map[net.Conn]struct{}{}}
		c.sources[id] = s
		c.metSources.SetInt(len(c.sources))
	}
	return s
}

// Source returns the state for id, or nil if the source never connected.
func (c *Collector) Source(id string) *Source {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sources[id]
}

// sourceList returns every source, in no particular order.
func (c *Collector) sourceList() []*Source {
	c.mu.Lock()
	defer c.mu.Unlock()
	srcs := make([]*Source, 0, len(c.sources))
	for _, s := range c.sources {
		srcs = append(srcs, s)
	}
	return srcs
}

// CloseConns severs every live shipper connection: the crash harness's
// kill switch, the daemon's shutdown path.
func (c *Collector) CloseConns() { c.rx.CloseConns() }

// Close refuses every frame from now on, severs every connection, lets
// each apply in flight finish and, when checkpointing is configured,
// writes a final checkpoint.
func (c *Collector) Close() error {
	c.closed.Store(true)
	c.CloseConns()
	for _, s := range c.sourceList() {
		s.applyMu.Lock() // the apply in flight returns; the next one sees closed
		s.applyMu.Unlock()
	}
	if c.cfg.CheckpointPath == "" {
		return nil
	}
	return c.Checkpoint()
}

// ShardLoad reports how many frames the collector's sources have applied
// (restored counts included), as a one-element slice. Frames apply on the
// connection goroutine that read them, so there is no per-shard split;
// the method is kept only for the benchmark harness (bench/fluctbench),
// whose imbalance row reads it.
func (c *Collector) ShardLoad() []uint64 {
	var total uint64
	for _, s := range c.sourceList() {
		s.mu.Lock()
		total += s.frames
		s.mu.Unlock()
	}
	return []uint64{total}
}

// HandleConn runs one shipper connection through the sequenced receive
// loop (durable.Receiver.Run); each frame decodes and integrates on the
// connection's own goroutine. Exported for tests and in-process transports.
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
	// owed is the disposition a THandoffSource owes its peer ahead of its
	// ack (zero for every other frame): a fresh import's from its apply, a
	// replay's always a duplicate.
	owed wire.HandoffAck
}

// lockApply takes the source's apply mutex for one Start or Hand, or
// refuses: a frozen source is answered with TRedirect, a closed collector
// with nothing.
func (s *sourceStream) lockApply() bool {
	src := s.src
	src.applyMu.Lock()
	src.mu.Lock()
	frozen := src.frozen
	src.mu.Unlock()
	if !frozen && !s.c.closed.Load() {
		return true
	}
	src.applyMu.Unlock()
	if frozen {
		// The drain quiesced the source after the handshake.
		s.c.redirectAndClose(src, s.conn)
	}
	return false
}

// Start applies a SeqStart to the source's watermark and aborts a set it
// orphans, under the apply mutex: the abort lands after every frame
// already admitted.
func (s *sourceStream) Start(ss wire.SeqStart) (acked, resume uint64, ok bool) {
	if !s.lockApply() {
		return 0, 0, false
	}
	src := s.src
	defer src.applyMu.Unlock()
	src.mu.Lock()
	acked, resume, orphaned := src.wm.Start(ss.Epoch, ss.FirstSeq)
	src.mu.Unlock()
	if orphaned && src.integ != nil {
		s.c.finishSet(src, wire.SetEnd{}, true, 0, 0)
	}
	return acked, resume, true
}

// Hand admits a frame and applies a fresh one in one hold of the apply
// mutex, on this connection's goroutine: the source applies in admission
// order, a duplicate returns only after its original's apply, and a slow
// apply stops this connection reading, which leaves the backpressure to
// TCP. SetEnd and the two handoff data frames earn acks, so a draining
// peer's spool trims as each import lands durably.
func (s *sourceStream) Hand(f *durable.Frame) (ack, ok bool) {
	defer f.Release()
	if !s.lockApply() {
		return false, false
	}
	src := s.src
	defer src.applyMu.Unlock()
	src.mu.Lock()
	adm := f.Admit(&src.wm)
	src.mu.Unlock()
	var err error
	s.owed = wire.HandoffAck{}
	switch {
	case adm == durable.Fresh:
		s.owed, err = s.c.apply(src, f)
	case adm == durable.Duplicate && f.Type == wire.THandoffSource:
		// A replayed import still owes its peer a disposition, unless the
		// original failed.
		if hs, derr := wire.DecodeHandoffSource(f.Payload); derr == nil && s.c.landed(hs) {
			s.owed = wire.HandoffAck{Source: hs.Source, Disposition: wire.HandoffDuplicate}
		}
	}
	ackWorthy := f.Type == wire.TSetEnd || f.Type == wire.THandoffBegin || f.Type == wire.THandoffSource
	return ackWorthy && adm != durable.Stale && err == nil, true
}

func (s *sourceStream) Sync() (sync.Locker, *durable.Watermark) { return &s.src.mu, &s.src.wm }

// Acking reports what an import did (installed, merged, duplicate) ahead
// of its ack, so the drainer has every disposition by the time the final
// ack releases its Drain.
func (s *sourceStream) Acking(*durable.Frame) error {
	if s.owed.Source == "" {
		return nil
	}
	payload, err := wire.AppendHandoffAck(nil, s.owed)
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

// apply applies one admitted frame and books it against the source; a
// THandoffSource also returns the disposition its peer is owed. Caller
// holds src.applyMu.
func (c *Collector) apply(src *Source, f *durable.Frame) (owed wire.HandoffAck, err error) {
	if f.Type == wire.THandoffSource {
		owed, err = c.applyHandoffSource(src, f.Payload)
	} else {
		err = c.applyFrame(src, f)
	}
	src.mu.Lock()
	src.frames++
	if err != nil {
		// The frame arrived intact (CRC passed) but its payload is
		// undecodable.
		c.metCRCErrs.Inc()
		src.crcErrors++
	} else if f.Type == wire.THandoffBegin || f.Type == wire.THandoffSource {
		// An import settles after the target row changed (under the
		// target's own mutex): a snapshot between the two replays the
		// import, which importSource recognizes as a duplicate. SetEnd
		// settles inside finishSet, together with its accounting.
		src.wm.Settle(f.Epoch, f.Seq)
	}
	src.mu.Unlock()
	return owed, err
}

// applyFrame applies one verified frame to the source's in-set state.
// The caller holds src.applyMu, which makes integ/scan/curItem its own:
// the decode (zero-copy record iterators over the pooled frame bytes) and
// the integrator push take no other lock; only the finishSet publication,
// which the checkpoint and fleet view read, is written under src.mu.
func (c *Collector) applyFrame(src *Source, f *durable.Frame) error {
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
		src.curFreq = freq
		src.scan.Reset(pmu.UopsRetired)
		src.curItem = src.curItem[:0]
		integ, err := core.NewStreamIntegrator(tab, core.Options{Event: pmu.UopsRetired}, func(*core.Item) {})
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
		c.finishSet(src, end, false, f.Epoch, f.Seq)
		return nil
	case wire.THandoffBegin:
		return c.applyHandoffBegin(src, f.Payload)
	default:
		return fmt.Errorf("collector: unexpected %s frame", f.Type)
	}
}

// finishSet closes the in-flight set: flush the integrator, run the gap
// scan, reconcile declared vs received totals, and publish the result as
// the source's last completed set. Caller holds src.applyMu; the flush
// and the gap scan take no other lock, only the publication takes src.mu.
// (epoch, seq) number the SetEnd that closed
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
	// Every set is encoded here, once, into the reused buffer; the
	// checkpoint and a handoff export copy it out on first read
	// (payloadLocked), so a collector that reads neither allocates nothing
	// for it.
	buf, sumErr := appendSummary(src.sumBuf[:0], src.ID, src.curFreq, src.curItem)
	if sumErr == nil {
		src.sumBuf = buf
	}

	src.mu.Lock()
	src.freq = src.curFreq
	src.diag = diag
	src.items = append(src.items[:0], src.curItem...)
	src.summary, src.summaryErr, src.sumUnread = nil, sumErr, sumErr == nil
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
	}
	src.mu.Unlock()

	src.curItem = src.curItem[:0]

	if c.cfg.OnSummary != nil {
		// Still under the apply mutex: the callback returns before this
		// frame's Hand does, so the SetEnd checkpoint+ack happens-after
		// whatever durability the callback establishes, and a checkpoint
		// (which takes the apply mutex) never snapshots the settled set
		// while its summary is still on the way out.
		c.cfg.OnSummary(fs)
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
// the fleet view reads, and feeds the uplink tap. Caller holds
// src.applyMu, which gives the detector its one caller at a time.
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
// freezing) is what gets exercised rather than an idle freeze. It waits
// out an apply in flight.
func (s *Source) SetOpen() bool {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	return s.integ != nil
}

// Items returns a copy of the source's last completed set's items, in the
// offline Integrate order: ascending (BeginTSC, core).
func (s *Source) Items() []core.Item {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]core.Item(nil), s.items...)
	core.SortItems(out)
	return out
}

// Diag returns the integration diagnostics of the last completed set.
func (s *Source) Diag() core.Diagnostics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.diag
}

// FreqHz returns the TSC frequency of the last completed set, the clock
// its Items are in (0 before the first set completes).
func (s *Source) FreqHz() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.freq
}
