package agg

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/ship"
	"repro/internal/wire"
)

// UplinkConfig parameterizes a shard collector's uplink to the global
// aggregator.
type UplinkConfig struct {
	// Addr is the aggregator's address.
	Addr string
	// Shard is this shard collector's ID — the wire-level source of the
	// uplink connection (1–255 bytes).
	Shard string
	// SpoolDir makes at-least-once summary delivery survive a shard restart
	// (see the Uplink doc comment for the guarantee this buys). Empty keeps
	// unacknowledged summaries in memory only.
	SpoolDir string
	// Dial opens the connection (default TCP); tests substitute pipes or
	// fault injectors.
	Dial ship.DialFunc
	// BackoffMin/BackoffMax bound the reconnect backoff (shipper defaults).
	BackoffMin, BackoffMax time.Duration
	// Registry receives the uplink's self-telemetry (nil: obs.Default()).
	Registry *obs.Registry
}

// Uplink is the shard collector's shipping agent for the second hop: it
// encodes each completed set's fleet summary as a TFleetSummary frame and
// feeds it through an ordinary ship.Shipper — spool write-through,
// reconnect with backoff, seq/ack, resume-from-watermark — to the
// aggregator. No new transport machinery; the summary is just another
// frame type.
//
// Durability chain: the collector invokes OnSummary inside the triggering
// SetEnd's apply, on the connection goroutine that read it and under the
// source's apply mutex, before the frame is checkpointed or acked; and
// EnqueueFrame writes through to the spool before returning. So with a
// SpoolDir configured, by the time the shard
// collector checkpoints and acks a set to its worker, that set's summary
// is already durable in the uplink spool (or acked by the aggregator) —
// a shard crash between worker-ack and aggregator-delivery loses nothing:
// the spool replays on restart and the aggregator dedups by (shard,
// epoch, seq).
type Uplink struct {
	sh *ship.Shipper
	// scratch holds *[]byte encode buffers. EnqueueFrame copies a payload
	// into a pooled frame before it returns, so each call borrows one for
	// its encode and hands it back; calls for different sources run
	// concurrently, each under its own source's apply mutex.
	scratch      sync.Pool
	metSummaries *obs.Counter
	metVerdicts  *obs.Counter
	metEncErrs   *obs.Counter
	metDropped   *obs.Counter
}

// NewUplink validates cfg and builds the uplink, opening (and
// recovering) the spool when cfg.SpoolDir is set.
func NewUplink(cfg UplinkConfig) (*Uplink, error) {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	sh, err := ship.New(ship.Config{
		Addr:       cfg.Addr,
		Source:     cfg.Shard,
		SpoolDir:   cfg.SpoolDir,
		Dial:       cfg.Dial,
		BackoffMin: cfg.BackoffMin,
		BackoffMax: cfg.BackoffMax,
		Registry:   reg,
	})
	if err != nil {
		return nil, err
	}
	return &Uplink{
		sh:           sh,
		scratch:      sync.Pool{New: func() any { return new([]byte) }},
		metSummaries: reg.Counter("fluct_agg_uplink_summaries_total"),
		metVerdicts:  reg.Counter("fluct_agg_uplink_verdicts_total"),
		metEncErrs:   reg.Counter("fluct_agg_uplink_encode_errors_total"),
		metDropped:   reg.Counter("fluct_agg_uplink_dropped_total"),
	}, nil
}

// OnSummary encodes and enqueues one summary; wire it as the shard
// collector's Config.OnSummary. It never blocks (the shipper's enqueue is
// non-blocking by contract); a summary that cannot be encoded or enqueued
// is counted, never silently lost.
func (u *Uplink) OnSummary(fs wire.FleetSummary) {
	u.send(wire.TFleetSummary, func(dst []byte) ([]byte, error) { return wire.AppendFleetSummary(dst, fs) }, u.metSummaries)
}

// OnVerdicts encodes and enqueues one verdict snapshot; wire it as the
// shard collector's Config.OnVerdicts. Same contract as OnSummary: it
// never blocks, and a snapshot that cannot be encoded or enqueued is
// counted, never silently lost. Snapshots ride the same sequenced stream
// as summaries, so the aggregator's dedup and last-writer-wins rules apply
// unchanged.
func (u *Uplink) OnVerdicts(vs wire.VerdictSet) {
	u.send(wire.TVerdicts, func(dst []byte) ([]byte, error) { return wire.AppendVerdicts(dst, vs) }, u.metVerdicts)
}

// send encodes one payload with enc into a borrowed scratch buffer and
// enqueues it as a frame of type t, counting it in sent once taken.
func (u *Uplink) send(t wire.Type, enc func(dst []byte) ([]byte, error), sent *obs.Counter) {
	bp := u.scratch.Get().(*[]byte)
	defer u.scratch.Put(bp)
	payload, err := enc((*bp)[:0])
	if err != nil {
		u.metEncErrs.Inc()
		return
	}
	*bp = payload
	if !u.sh.EnqueueFrame(wire.Frame{Type: t, Payload: payload}) {
		u.metDropped.Inc()
		return
	}
	sent.Inc()
}

// Run drives the uplink until ctx is cancelled or Close is called and
// everything pending has shipped.
func (u *Uplink) Run(ctx context.Context) error { return u.sh.Run(ctx) }

// Drain blocks until every spooled summary is acknowledged (or ctx dies).
func (u *Uplink) Drain(ctx context.Context) error { return u.sh.Drain(ctx) }

// Close stops accepting summaries; Run returns once pending ones ship.
func (u *Uplink) Close() { u.sh.Close() }

// PendingFrames reports how many summaries are not yet acknowledged.
func (u *Uplink) PendingFrames() uint64 { return u.sh.PendingFrames() }

// Epoch returns the uplink's numbering epoch.
func (u *Uplink) Epoch() uint64 { return u.sh.Epoch() }
