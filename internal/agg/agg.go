package agg

import (
	"bytes"
	"errors"
	"fmt"
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
	cfg Config
	rx  durable.Receiver // the sequenced receive loop and its live connections

	mu sync.Mutex
	// shards holds each shard collector's acked-delivery state — the same
	// watermark the collector keeps per source, because the hop speaks the
	// same protocol.
	shards  map[string]*durable.Watermark
	sources map[string]*mergedSource

	ckptMu   sync.Mutex       // serializes checkpoint file writes
	ckptFile durable.JSONFile // the checkpoint's kept buffer; guarded by ckptMu

	lastMergeNano atomic.Int64 // unix nanos of the most recent applied summary

	metMerges  *obs.Counter
	metDecErrs *obs.Counter
	metCkpts   *obs.Counter
	metSources *obs.Gauge
	metShards  *obs.Gauge
	metMergeNs *obs.Histogram
	metStale   *obs.Counter
}

// mergedSource is one source's latest row plus the shard that delivered
// it. The row holds the summary and the clock but never the items: those
// stay encoded in summaryFrame until a Fleet read decodes them. Within one
// shard's stream, seq order makes "latest" well defined; across shards (a
// rebalance moved the source) the last writer wins and the row reflects
// the current owner's cumulative view. Verdict snapshots ride a separate
// frame type on the same stream, so they live beside the row rather than
// in it — a fresh summary must not wipe the verdicts and vice versa.
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
	// summaryFrame and verdictsFrame are the TFleetSummary and TVerdicts
	// payloads the row and the verdicts were read from: Fleet decodes the
	// items from summaryFrame, the checkpoint writes both as they are, and
	// restore checks them again. Replaced wholesale, never mutated, so a
	// reader may hold one past a.mu.
	summaryFrame, verdictsFrame []byte
}

// setSummary replaces the row with the header and item count
// wire.CheckFleetSummary read from payload, and keeps payload for the
// items — for a live merge and for a restore alike.
func (ms *mergedSource) setSummary(fs wire.FleetSummary, items int, payload []byte) {
	ms.row = collector.SourceRow{
		Summary: collector.SourceSummary{
			ID:             fs.Source,
			Sets:           fs.Sets,
			AbortedSets:    fs.AbortedSets,
			Items:          items,
			MeanConfidence: fs.MeanConf,
			Degraded:       fs.Degraded,
			GapLine:        fs.GapLine,
			LostMarkers:    fs.LostMarkers,
			LostSamples:    fs.LostSamples,
			CRCErrors:      fs.CRCErrors,
			Disconnects:    fs.Disconnects,
		},
		FreqHz: fs.FreqHz,
	}
	ms.summaryFrame = payload
}

// setVerdicts replaces the verdict snapshot with the one decoded from
// payload — for a live merge and for a restore alike.
func (ms *mergedSource) setVerdicts(vs wire.VerdictSet, payload []byte) {
	ms.verdicts = vs.Verdicts
	ms.active = vs.Active
	ms.verdictKey = verdictKeyOf(vs)
	ms.verdictsFrame = payload
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
	decErrs := reg.Counter("fluct_agg_decode_errors_total")
	a := &Aggregator{
		cfg: cfg,
		rx: durable.Receiver{
			Pool:        wire.NewFramePool(reg),
			IdleTimeout: cfg.IdleTimeout,
			Counters: durable.Counters{
				Conns:            reg.Counter("fluct_agg_connections_total"),
				Frames:           reg.Counter("fluct_agg_frames_total"),
				Bytes:            reg.Counter("fluct_agg_bytes_total"),
				Acks:             reg.Counter("fluct_agg_acks_total"),
				Duplicates:       reg.Counter("fluct_agg_duplicate_frames_total"),
				Idle:             reg.Counter("fluct_agg_idle_disconnects_total"),
				Disconnects:      reg.Counter("fluct_agg_disconnects_total"),
				Corrupt:          decErrs,
				Grammar:          decErrs,
				CheckpointErrors: reg.Counter("fluct_agg_checkpoint_errors_total"),
			},
		},
		shards:     map[string]*durable.Watermark{},
		sources:    map[string]*mergedSource{},
		metMerges:  reg.Counter("fluct_agg_merges_total"),
		metDecErrs: decErrs,
		metCkpts:   reg.Counter("fluct_agg_checkpoints_total"),
		metSources: reg.Gauge("fluct_agg_sources"),
		metShards:  reg.Gauge("fluct_agg_shards"),
		metMergeNs: reg.Histogram("fluct_agg_merge_ns"),
		metStale:   reg.Counter("fluct_agg_stale_rows_total"),
	}
	if cfg.CheckpointPath != "" {
		a.rx.Checkpoint = a.Checkpoint
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
func (a *Aggregator) Serve(l net.Listener) error { return a.rx.Serve(l, a.HandleConn) }

// CloseConns severs every live upstream connection.
func (a *Aggregator) CloseConns() { a.rx.CloseConns() }

// Close severs every connection and, when checkpointing is configured,
// writes a final checkpoint.
func (a *Aggregator) Close() error {
	a.CloseConns()
	if a.cfg.CheckpointPath == "" {
		return nil
	}
	return a.Checkpoint()
}

// HandleConn runs one shard uplink connection to completion through the
// collector's own receive loop (durable.Receiver.Run).
func (a *Aggregator) HandleConn(conn net.Conn) {
	a.rx.Run(conn, func(id string) durable.Stream {
		a.mu.Lock()
		defer a.mu.Unlock()
		wm := a.shards[id]
		if wm == nil {
			wm = &durable.Watermark{}
			a.shards[id] = wm
			a.metShards.SetInt(len(a.shards))
		}
		return &shardStream{a: a, id: id, wm: wm}
	})
}

// shardStream is one uplink connection's side of the receive loop.
type shardStream struct {
	a  *Aggregator
	id string
	wm *durable.Watermark
}

// Start applies a SeqStart. Summaries have no mid-set state, so a
// renumbering orphans nothing here.
func (s *shardStream) Start(ss wire.SeqStart) (acked, resume uint64, ok bool) {
	s.a.mu.Lock()
	defer s.a.mu.Unlock()
	acked, resume, _ = s.wm.Start(ss.Epoch, ss.FirstSeq)
	return acked, resume, true
}

// Hand reads a frame outside the lock — a summary is checked, not decoded,
// and a verdict snapshot is decoded — then admits, merges and settles it in
// one a.mu hold, so no later number is ever settled, checkpointed or acked
// ahead of it. An intact frame that does not pass keeps its number and is
// counted, unacked. A good payload is copied out of the pooled frame, which
// is released before the lock: the merged source keeps the copy for Fleet
// and the checkpoint.
func (s *shardStream) Hand(f *durable.Frame) (ack, ok bool) {
	a := s.a
	var fs wire.FleetSummary
	var items int
	var vs wire.VerdictSet
	var err error
	typ := f.Type
	switch typ {
	case wire.TFleetSummary:
		fs, items, err = wire.CheckFleetSummary(f.Payload)
	case wire.TVerdicts:
		vs, err = wire.DecodeVerdicts(f.Payload)
	default:
		err = fmt.Errorf("agg: unexpected %s frame", typ)
	}
	var payload []byte
	if err == nil {
		payload = bytes.Clone(f.Payload)
	}
	f.Release()
	a.mu.Lock()
	adm := f.Admit(s.wm)
	if adm == durable.Fresh && err == nil {
		if typ == wire.TFleetSummary {
			a.mergeSummaryLocked(s.id, fs, items, payload)
		} else {
			a.mergeVerdictsLocked(s.id, vs, payload)
		}
		s.wm.Settle(f.Epoch, f.Seq)
	}
	a.mu.Unlock()
	if adm == durable.Fresh && err != nil {
		a.metDecErrs.Inc()
		return false, true
	}
	return true, true
}

func (s *shardStream) Sync() (sync.Locker, *durable.Watermark) { return &s.a.mu, s.wm }

func (s *shardStream) Acking(*durable.Frame) error { return nil }

func (s *shardStream) End(lost error) bool { return lost != nil }

// mergeSummaryLocked folds one checked summary — its header, item count
// and payload — into the merged state: last-writer-wins per source. The
// row and the payload are replaced wholesale, so a Fleet read decoding a
// previous payload is never mutated under. Caller holds a.mu.
func (a *Aggregator) mergeSummaryLocked(shardID string, fs wire.FleetSummary, items int, payload []byte) {
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
	ms.setSummary(fs, items, payload)
	a.metSources.SetInt(len(a.sources))
	a.lastMergeNano.Store(time.Now().UnixNano())
	a.metMerges.Inc()
}

// mergeVerdictsLocked folds one decoded verdict snapshot, and the payload
// it was decoded from, into the merged state: last-writer-wins per source,
// like summary rows. A snapshot may precede the source's first summary
// (the event fired mid-set); the placeholder row carries just the ID until
// the summary lands. Caller holds a.mu.
func (a *Aggregator) mergeVerdictsLocked(shardID string, vs wire.VerdictSet, payload []byte) {
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
	if ms.verdictShard != "" && shardID != ms.verdictShard && verdictKeyOf(vs).less(ms.verdictKey) {
		a.metStale.Inc()
		return
	}
	ms.shard = shardID
	ms.verdictShard = shardID
	ms.setVerdicts(vs, payload)
	a.metSources.SetInt(len(a.sources))
	a.lastMergeNano.Store(time.Now().UnixNano())
	a.metMerges.Inc()
}

// Fleet assembles the merged fleet view through the same MergeFleet the
// single-tier collector uses — which is the whole byte-equivalence
// argument: identical rows in, identical report out. The rows and their
// payloads are snapshotted under a.mu and the items decoded outside it, so
// a read holds up no merge.
func (a *Aggregator) Fleet() collector.FleetView {
	start := time.Now()
	a.mu.Lock()
	rows := make([]collector.SourceRow, 0, len(a.sources))
	frames := make([][]byte, 0, len(a.sources))
	for _, s := range a.sources {
		row := s.row
		row.Verdicts = s.verdicts
		row.Summary.ActiveVerdicts = s.active
		rows = append(rows, row)
		frames = append(frames, s.summaryFrame)
	}
	topK := a.cfg.TopK
	a.mu.Unlock()
	for i, p := range frames {
		if p == nil {
			continue // a verdict placeholder: no summary yet
		}
		// The payload passed CheckFleetSummary before it was kept, and
		// the check accepts exactly what the decode does.
		fs, err := wire.DecodeFleetSummary(p)
		if err != nil {
			panic(fmt.Sprintf("agg: source %q: a checked summary does not decode: %v", rows[i].Summary.ID, err))
		}
		rows[i].Items = fs.Items
	}
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
	if wm := a.shards[shard]; wm != nil {
		return wm.Epoch, wm.Acked
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
// cross-shard views as JSON — served by the single-tier collector's own
// view handler.
func (a *Aggregator) Handler() http.Handler {
	return collector.ViewHandler(a.cfg.Registry, a.Health, a.Fleet)
}
