package agg

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/detect"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Config parameterizes an Aggregator.
type Config struct {
	// TopK is how many fleet-wide slowest items the merged view carries
	// (default 10). For byte-equivalence with a single collector it must
	// match that collector's TopK.
	TopK int
	// CheckpointPath, when set, makes delivery acknowledgements durable:
	// the merged state and the per-shard ack watermarks are checkpointed
	// (atomic tmp + rename) before every ack, and New restores from it.
	// Empty means acks only promise process-lifetime durability.
	CheckpointPath string
	// IdleTimeout closes an upstream connection that delivers no frame for
	// this long (≤ 0 disables).
	IdleTimeout time.Duration
	// Registry receives the aggregator's self-telemetry (nil: obs.Default()).
	Registry *obs.Registry
}

// Aggregator is the global tier: it accepts shard-collector uplink
// connections, deduplicates their at-least-once summary streams by
// (shard, epoch, seq), and folds every source's latest row into one
// merged fleet view.
type Aggregator struct {
	cfg  Config
	pool *wire.FramePool // upstream frames are read into it

	mu      sync.Mutex
	shards  map[string]*upstream
	sources map[string]*mergedSource
	conns   map[net.Conn]struct{}

	ckptMu sync.Mutex // serializes checkpoint file writes

	lastMergeNano atomic.Int64 // unix nanos of the most recent applied summary

	metConns    *obs.Counter
	metDiscon   *obs.Counter
	metIdleDisc *obs.Counter
	metFrames   *obs.Counter
	metBytes    *obs.Counter
	metMerges   *obs.Counter
	metDups     *obs.Counter
	metDecErrs  *obs.Counter
	metAcks     *obs.Counter
	metCkpts    *obs.Counter
	metCkptErrs *obs.Counter
	metSources  *obs.Gauge
	metShards   *obs.Gauge
	metMergeNs  *obs.Histogram
	metStale    *obs.Counter
}

// upstream is the per-shard-collector acked-delivery state — the same
// durable.Watermark the collector keeps per source, because the hop speaks
// the same protocol. Guarded by Aggregator.mu.
type upstream struct {
	id string
	wm durable.Watermark
}

// mergedSource is one source's latest row plus the shard that delivered
// it. Within one shard's stream, seq order makes "latest" well defined;
// across shards (a rebalance moved the source) the last writer wins and
// the row reflects the current owner's cumulative view. Verdict snapshots
// ride a separate frame type on the same stream, so they live beside the
// row rather than in it — a fresh summary must not wipe the verdicts and
// vice versa.
type mergedSource struct {
	shard    string
	row      collector.SourceRow
	verdicts []detect.Verdict
	active   uint32
	// verdictShard/verdictKey track which shard delivered the verdict
	// snapshot and how far it reached, for the cross-shard staleness rule
	// (see mergeVerdictsLocked).
	verdictShard string
	verdictKey   verdictKey
}

// verdictKey orders verdict snapshots of one source across a rebalance:
// the change-event ordinal is per-source monotone and survives a handoff
// (the detector snapshot carries its counters), and within an event the
// window's newest item breaks the tie. Lexicographic comparison.
type verdictKey struct {
	event uint64
	item  uint64
}

func (k verdictKey) less(o verdictKey) bool {
	if k.event != o.event {
		return k.event < o.event
	}
	return k.item < o.item
}

// verdictKeyOf reduces a snapshot to its key.
func verdictKeyOf(vs wire.VerdictSet) verdictKey {
	var k verdictKey
	for _, v := range vs.Verdicts {
		vk := verdictKey{event: v.Event, item: v.Window.LastItem}
		if k.less(vk) {
			k = vk
		}
	}
	return k
}

// New builds an aggregator, restoring merged state from
// cfg.CheckpointPath when the file exists. As with the collector, a
// checkpoint that cannot be read or parsed is an error, not a silent
// empty start.
func New(cfg Config) (*Aggregator, error) {
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	a := &Aggregator{
		cfg:         cfg,
		pool:        wire.NewFramePool(reg),
		shards:      map[string]*upstream{},
		sources:     map[string]*mergedSource{},
		conns:       map[net.Conn]struct{}{},
		metConns:    reg.Counter("fluct_agg_connections_total"),
		metDiscon:   reg.Counter("fluct_agg_disconnects_total"),
		metIdleDisc: reg.Counter("fluct_agg_idle_disconnects_total"),
		metFrames:   reg.Counter("fluct_agg_frames_total"),
		metBytes:    reg.Counter("fluct_agg_bytes_total"),
		metMerges:   reg.Counter("fluct_agg_merges_total"),
		metDups:     reg.Counter("fluct_agg_duplicate_frames_total"),
		metDecErrs:  reg.Counter("fluct_agg_decode_errors_total"),
		metAcks:     reg.Counter("fluct_agg_acks_total"),
		metCkpts:    reg.Counter("fluct_agg_checkpoints_total"),
		metCkptErrs: reg.Counter("fluct_agg_checkpoint_errors_total"),
		metSources:  reg.Gauge("fluct_agg_sources"),
		metShards:   reg.Gauge("fluct_agg_shards"),
		metMergeNs:  reg.Histogram("fluct_agg_merge_ns"),
		metStale:    reg.Counter("fluct_agg_stale_rows_total"),
	}
	// Merge lag: how stale the merged view is, in milliseconds since the
	// last summary was folded in. Zero until the first merge.
	reg.GaugeFunc("fluct_agg_lag_ms", func() float64 {
		last := a.lastMergeNano.Load()
		if last == 0 {
			return 0
		}
		return float64(time.Now().UnixNano()-last) / 1e6
	})
	if cfg.CheckpointPath != "" {
		if err := a.restoreCheckpoint(cfg.CheckpointPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	return a, nil
}

// Serve accepts shard uplink connections on l until the listener closes.
func (a *Aggregator) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go a.HandleConn(conn)
	}
}

// upstreamState returns (creating if needed) the state for shard id.
func (a *Aggregator) upstream(id string) *upstream {
	a.mu.Lock()
	defer a.mu.Unlock()
	up := a.shards[id]
	if up == nil {
		up = &upstream{id: id}
		a.shards[id] = up
		a.metShards.SetInt(len(a.shards))
	}
	return up
}

// CloseConns severs every live upstream connection (the chaos harness's
// kill switch; the daemon's shutdown path).
func (a *Aggregator) CloseConns() {
	a.mu.Lock()
	conns := make([]net.Conn, 0, len(a.conns))
	for conn := range a.conns {
		conns = append(conns, conn)
	}
	a.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
}

// Close severs every connection and, when checkpointing is configured,
// writes a final checkpoint.
func (a *Aggregator) Close() error {
	a.CloseConns()
	if a.cfg.CheckpointPath == "" {
		return nil
	}
	return a.Checkpoint()
}

func (a *Aggregator) trackConn(conn net.Conn, add bool) {
	a.mu.Lock()
	if add {
		a.conns[conn] = struct{}{}
	} else {
		delete(a.conns, conn)
	}
	a.mu.Unlock()
}

// HandleConn runs one shard uplink connection to completion: handshake,
// then TFleetSummary frames until the connection dies. Exported so tests
// and in-process transports can drive the aggregator without a listener.
func (a *Aggregator) HandleConn(conn net.Conn) {
	defer conn.Close()
	a.trackConn(conn, true)
	defer a.trackConn(conn, false)
	a.metConns.Inc()
	shardID, _, err := wire.ServerHandshake(conn)
	if err != nil {
		return
	}
	up := a.upstream(shardID)

	var cs durable.Numbering
	rd := a.pool.NewReader(conn)
	for {
		if a.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(a.cfg.IdleTimeout))
		}
		f, err := rd.Next()
		if err != nil {
			switch {
			case errors.Is(err, os.ErrDeadlineExceeded):
				a.metIdleDisc.Inc()
			case errors.Is(err, wire.ErrChecksum):
				// A damaged frame consumed a number we cannot account for;
				// drop the link, the uplink retransmits.
				a.metDecErrs.Inc()
				a.metDiscon.Inc()
			case err != io.EOF:
				a.metDiscon.Inc()
			}
			return
		}
		a.metFrames.Inc()
		a.metBytes.Add(uint64(len(f.Raw())))

		if f.Type == wire.TSeqStart {
			ss, derr := wire.DecodeSeqStart(f.Payload)
			f.Release()
			if derr != nil {
				a.metDecErrs.Inc()
				return
			}
			// Summaries have no mid-set state, so a renumbering orphans
			// nothing here.
			a.mu.Lock()
			acked, resume, _ := up.wm.Start(ss.Epoch, ss.FirstSeq)
			a.mu.Unlock()
			cs.Begin(ss.Epoch, ss.FirstSeq)
			if wire.WriteAck(conn, wire.Ack{Epoch: cs.Epoch, Seq: acked, Applied: resume}) != nil {
				return
			}
			a.metAcks.Inc()
			continue
		}

		// Every data frame consumes the next number; admitting it claims the
		// number. One that arrives before any SeqStart has none: the peer
		// does not speak the grammar.
		seq, ok := cs.Take()
		if !ok {
			f.Release()
			a.metDecErrs.Inc()
			return
		}
		a.mu.Lock()
		adm := up.wm.Admit(cs.Epoch, seq)
		a.mu.Unlock()
		// The frame is done with once applied: the decoders copy.
		applied := adm == durable.Fresh && a.apply(up, cs.Epoch, seq, f)
		f.Release()
		switch adm {
		case durable.Stale:
			// A newer uplink generation superseded this link.
			a.metDiscon.Inc()
			return
		case durable.Fresh:
			// A frame that arrived intact (CRC passed) but is not a usable
			// payload cannot be helped by retransmitting identical bytes, so
			// its sequence number stays consumed, the frame is dropped and
			// counted, and no ack is sent — the next good frame's cumulative
			// ack covers it.
			if !applied {
				a.metDecErrs.Inc()
				continue
			}
		case durable.Duplicate:
			// Retransmission of an applied summary (its ack was lost or
			// withheld by a checkpoint failure): skip the merge, re-attempt
			// durability + ack.
			a.metDups.Inc()
		}

		// Ack-after-durability: persist the merge before acknowledging it,
		// and commit the watermark only once the checkpoint is durable.
		a.mu.Lock()
		up.wm.Settle(cs.Epoch, seq) // a duplicate of an unusable frame settles here
		isDurable := seq <= up.wm.Acked
		a.mu.Unlock()
		if !isDurable {
			if a.cfg.CheckpointPath != "" {
				if err := a.Checkpoint(); err != nil {
					a.metCkptErrs.Inc()
					continue
				}
			}
			a.mu.Lock()
			up.wm.Commit(cs.Epoch, seq)
			a.mu.Unlock()
		}
		if wire.WriteAck(conn, wire.Ack{Epoch: cs.Epoch, Seq: seq, Applied: seq}) != nil {
			return
		}
		a.metAcks.Inc()
	}
}

// apply decodes one data frame (outside the lock) and folds it into the
// merged state, settling the shard's watermark in the same a.mu hold as
// the merge so a snapshot never holds one without the other. It reports
// false for a frame that is not a usable payload.
func (a *Aggregator) apply(up *upstream, epoch, seq uint64, f wire.FrameView) bool {
	var merge func()
	switch f.Type {
	case wire.TFleetSummary:
		fs, err := wire.DecodeFleetSummary(f.Payload)
		if err != nil {
			return false
		}
		merge = func() { a.mergeSummaryLocked(up.id, fs) }
	case wire.TVerdicts:
		vs, err := wire.DecodeVerdicts(f.Payload)
		if err != nil {
			return false
		}
		merge = func() { a.mergeVerdictsLocked(up.id, vs) }
	default:
		return false
	}
	a.mu.Lock()
	merge()
	up.wm.Settle(epoch, seq)
	a.mu.Unlock()
	return true
}

// mergeSummaryLocked folds one decoded summary into the merged state:
// last-writer-wins per source. The decoded items are freshly allocated by
// the decoder and the row is replaced wholesale, so readers holding a
// previous Fleet() snapshot are never mutated under. Caller holds a.mu.
func (a *Aggregator) mergeSummaryLocked(shardID string, fs wire.FleetSummary) {
	row := collector.SourceRow{
		Summary: collector.SourceSummary{
			ID:             fs.Source,
			Sets:           fs.Sets,
			AbortedSets:    fs.AbortedSets,
			Items:          len(fs.Items),
			MeanConfidence: fs.MeanConf,
			Degraded:       fs.Degraded,
			GapLine:        fs.GapLine,
			LostMarkers:    fs.LostMarkers,
			LostSamples:    fs.LostSamples,
			CRCErrors:      fs.CRCErrors,
			Disconnects:    fs.Disconnects,
		},
		FreqHz: fs.FreqHz,
		Items:  fs.Items,
	}
	ms := a.sources[fs.Source]
	if ms == nil {
		ms = &mergedSource{}
		a.sources[fs.Source] = ms
	}
	// Staleness guard for rebalances: after a planned drain the departing
	// shard's uplink spool may still replay rows for a source whose new
	// owner has already delivered fresher ones. The cumulative set count
	// (completed + aborted) is per-source monotone and travels with the
	// handoff, so a row that would move it backwards is a stale replay —
	// and at an equal count, a row from a different shard is the older
	// writer (the new owner only speaks after its first completed set
	// advances the count). Same-shard equal rows still apply (verdict-only
	// refreshes ride a separate frame, summaries at the same count carry
	// the same state).
	newSum := fs.Sets + fs.AbortedSets
	curSum := ms.row.Summary.Sets + ms.row.Summary.AbortedSets
	if (ms.shard != "" || curSum > 0) &&
		(newSum < curSum || (newSum == curSum && shardID != ms.shard)) {
		a.metStale.Inc()
		return
	}
	ms.shard = shardID
	ms.row = row
	a.metSources.SetInt(len(a.sources))
	a.lastMergeNano.Store(time.Now().UnixNano())
	a.metMerges.Inc()
}

// mergeVerdictsLocked folds one decoded verdict snapshot into the merged
// state: last-writer-wins per source, like summary rows. A snapshot may
// precede the source's first summary (the event fired mid-set); the
// placeholder row carries just the ID until the summary lands. Caller
// holds a.mu.
func (a *Aggregator) mergeVerdictsLocked(shardID string, vs wire.VerdictSet) {
	ms := a.sources[vs.Source]
	if ms == nil {
		ms = &mergedSource{row: collector.SourceRow{
			Summary: collector.SourceSummary{ID: vs.Source}}}
		a.sources[vs.Source] = ms
	}
	// Staleness guard, the verdict-stream twin of mergeSummaryLocked's: within
	// one shard's stream seq order makes last-writer-wins correct, but
	// across shards (a drain moved the source) the departing shard's spool
	// may replay snapshots the new owner has already superseded. The
	// change-event ordinal survives the handoff (the detector snapshot
	// carries its counters), so a cross-shard snapshot may only apply when
	// it reaches at least as far as the stored one.
	key := verdictKeyOf(vs)
	if ms.verdictShard != "" && shardID != ms.verdictShard && key.less(ms.verdictKey) {
		a.metStale.Inc()
		return
	}
	ms.shard = shardID
	ms.verdicts = vs.Verdicts
	ms.active = vs.Active
	ms.verdictShard = shardID
	ms.verdictKey = key
	a.metSources.SetInt(len(a.sources))
	a.lastMergeNano.Store(time.Now().UnixNano())
	a.metMerges.Inc()
}

// Fleet assembles the merged fleet view through the same MergeFleet the
// single-tier collector uses — which is the whole byte-equivalence
// argument: identical rows in, identical report out.
func (a *Aggregator) Fleet() collector.FleetView {
	start := time.Now()
	a.mu.Lock()
	rows := make([]collector.SourceRow, 0, len(a.sources))
	for _, s := range a.sources {
		row := s.row
		row.Verdicts = s.verdicts
		row.Summary.ActiveVerdicts = s.active
		rows = append(rows, row)
	}
	topK := a.cfg.TopK
	a.mu.Unlock()
	v := collector.MergeFleet(topK, rows)
	a.metMergeNs.Record(uint64(time.Since(start)))
	return v
}

// SourceShard reports which shard last delivered source's row ("" if the
// source is unknown) — the chaos and rebalance tests' ownership probe.
func (a *Aggregator) SourceShard(source string) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if s := a.sources[source]; s != nil {
		return s.shard
	}
	return ""
}

// UpstreamAcked returns shard's delivery watermark (epoch, last acked
// seq), zero values if the shard never connected.
func (a *Aggregator) UpstreamAcked(shard string) (epoch, seq uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if up := a.shards[shard]; up != nil {
		return up.wm.Epoch, up.wm.Acked
	}
	return 0, 0
}

// Health derives the /healthz verdict from the merged view via the shared
// collector.FleetHealth.
func (a *Aggregator) Health() obs.Health {
	return collector.FleetHealth(a.Fleet())
}

// Handler returns the aggregator's HTTP surface: the standard
// self-telemetry endpoints plus /fleet and /verdicts, the merged
// cross-shard views as JSON — the same shapes the single-tier collector
// serves.
func (a *Aggregator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(obs.HandlerOptions{Registry: a.cfg.Registry, Health: a.Health}))
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(a.Fleet())
	})
	mux.HandleFunc("/verdicts", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(collector.VerdictsOf(a.Fleet()))
	})
	return mux
}
