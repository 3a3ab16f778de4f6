package agg

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/collector"
	"repro/internal/obs"
	"repro/internal/ship"
	"repro/internal/wire"
)

// Drain is the planned departure of one shard collector: compute the
// handoff set under the post-departure ring, quiesce and freeze each
// moved source at a set boundary, ship its complete state to the new
// owner over the seq/ack + spool machinery, redirect its shippers,
// and only then drop it from this collector. Every step degrades
// gracefully:
//
//   - an unreachable new owner leaves the handoff staged in its spool
//     (the drain reports it incomplete; a re-run — or the restarted
//     shard's next drain — replays it);
//   - a crash mid-drain restarts frozen (the checkpoint persists the
//     handed-off mark) and re-drains; the receiver recognizes the
//     replayed state by its (epoch, seq) watermark and re-imports
//     nothing;
//   - a source that will not reach a set boundary inside the 10 s
//     quiesce bound has its in-flight set aborted rather than wedging
//     the drain (reported, and visible in the moved counters).

// DrainConfig parameterizes a Drain.
type DrainConfig struct {
	// Collector is the draining shard's collector.
	Collector *collector.Collector
	// Self is this shard's membership identity; Members is the full
	// current membership table including Self. A member's ID is the
	// address its handoff is dialled at.
	Self    string
	Members []string
	// SpoolDir is the root for the per-destination handoff spools. Keep
	// it stable across drain attempts: the spool is the staged handoff a
	// crash or an unreachable destination falls back to.
	SpoolDir string
	// ShipWait bounds each destination's delivery wait (default 30s). On
	// expiry the handoff stays spooled and the drain reports it pending.
	ShipWait time.Duration
	// Uplink, when set, is drained too: the departing shard's last
	// summaries must reach the aggregator or they die with the process.
	Uplink *Uplink

	// dial opens destination connections (default TCP), setWait bounds
	// each source's quiesce (default 10s) and registry receives the
	// handoff shippers' self-telemetry (nil: obs.Default()). Only the
	// drain harnesses set them.
	dial     ship.DialFunc
	setWait  time.Duration
	registry *obs.Registry
}

// DrainReport is what the drain accomplished, per destination and per
// source.
type DrainReport struct {
	// Sources is how many sources the drain set out to move.
	Sources int `json:"sources"`
	// Moved maps destination shard → the sources shipped to it.
	Moved map[string][]string `json:"moved,omitempty"`
	// Aborted lists sources whose quiesce hit its bound and aborted an
	// in-flight set.
	Aborted []string `json:"aborted,omitempty"`
	// Dispositions maps source → the receiver's import verdict
	// (installed/merged/duplicate), for sources whose THandoffAck
	// arrived.
	Dispositions map[string]string `json:"dispositions,omitempty"`
	// Pending maps destination → frames still unacknowledged when
	// ShipWait expired; they remain staged in the destination's spool.
	Pending map[string]uint64 `json:"pending,omitempty"`
	// Removed reports whether the moved sources were dropped from the
	// draining collector (only once every destination acknowledged).
	Removed bool `json:"removed"`
}

// Complete reports whether every handoff was delivered and acknowledged.
func (r *DrainReport) Complete() bool { return len(r.Pending) == 0 }

// Drain runs the planned departure to completion (or to ctx/budget
// expiry, leaving the remainder staged). The collector keeps serving its
// unmoved state; the caller stops the process once the drain is complete
// and the uplink flushed.
func Drain(ctx context.Context, cfg DrainConfig) (*DrainReport, error) {
	if cfg.Collector == nil {
		return nil, fmt.Errorf("agg: drain needs a collector")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("agg: drain needs the shard's own identity")
	}
	if cfg.setWait <= 0 {
		cfg.setWait = 10 * time.Second
	}
	if cfg.ShipWait <= 0 {
		cfg.ShipWait = 30 * time.Second
	}
	reg := cfg.registry
	if reg == nil {
		reg = obs.Default()
	}

	post := make([]string, 0, len(cfg.Members))
	for _, m := range cfg.Members {
		if m != cfg.Self {
			post = append(post, m)
		}
	}

	c := cfg.Collector
	sources := c.DrainableSources()
	c.BeginDrain(len(sources))
	plan := HandoffSet(cfg.Members, cfg.Self, sources)
	report := &DrainReport{
		Sources:      len(sources),
		Moved:        plan,
		Dispositions: map[string]string{},
		Pending:      map[string]uint64{},
	}

	// Quiesce and freeze every moved source first: from here on the
	// sources accept no frames and answer every connection with the
	// post-departure membership.
	for _, src := range sources {
		aborted, err := c.FreezeSource(src, post, cfg.setWait)
		if err != nil {
			return report, err
		}
		if aborted {
			report.Aborted = append(report.Aborted, src)
		}
	}

	// Ship each destination's handoff over its own sequenced, spooled
	// connection. Dispositions come back as THandoffAck control frames on
	// the ack stream.
	var mu sync.Mutex // guards report.Dispositions (ack-reader goroutines)
	dests := make([]string, 0, len(plan))
	for d := range plan {
		dests = append(dests, d)
	}
	sort.Strings(dests)
	type destShip struct {
		dest   string
		sh     *ship.Shipper
		cancel context.CancelFunc
		done   chan error
	}
	var shippers []destShip
	for _, dest := range dests {
		sh, err := ship.New(ship.Config{
			Addr:     dest,
			Source:   wire.HandoffPeerPrefix + cfg.Self,
			SpoolDir: filepath.Join(cfg.SpoolDir, dest),
			Dial:     cfg.dial,
			Registry: reg,
			OnControlFrame: func(f wire.Frame) {
				if f.Type != wire.THandoffAck {
					return
				}
				if ack, err := wire.DecodeHandoffAck(f.Payload); err == nil {
					mu.Lock()
					report.Dispositions[ack.Source] = ack.Disposition.String()
					mu.Unlock()
				}
			},
		})
		if err != nil {
			return report, fmt.Errorf("agg: drain shipper for %s: %w", dest, err)
		}
		runCtx, cancel := context.WithCancel(ctx)
		ds := destShip{dest: dest, sh: sh, cancel: cancel, done: make(chan error, 1)}
		go func() { ds.done <- sh.Run(runCtx) }()

		// Stage the handoff: begin frame, then one state frame per source.
		// EnqueueFrame writes through to the spool before returning, so by
		// the time MarkHandedOff is checkpointed below the staged handoff
		// is durable even if the destination is unreachable.
		begin, err := wire.AppendHandoffBegin(nil, wire.HandoffBegin{
			Shard: cfg.Self, Members: post, Sources: len(plan[dest]),
		})
		if err != nil {
			return report, err
		}
		sh.EnqueueFrame(wire.Frame{Type: wire.THandoffBegin, Payload: begin})
		for _, src := range plan[dest] {
			hs, err := c.ExportSource(src)
			if err != nil {
				return report, err
			}
			payload, err := wire.AppendHandoffSource(nil, hs)
			if err != nil {
				return report, fmt.Errorf("agg: drain export %s: %w", src, err)
			}
			sh.EnqueueFrame(wire.Frame{Type: wire.THandoffSource, Payload: payload})
			if err := c.MarkHandedOff(src); err != nil {
				return report, err
			}
			c.NoteDrained()
		}
		shippers = append(shippers, ds)
	}

	// Persist the handed-off marks before redirecting anyone: a crash
	// past this point restarts frozen and replays the staged handoff
	// instead of accepting frames the new owner also accepts.
	if err := c.Checkpoint(); err != nil && c.CheckpointConfigured() {
		return report, err
	}

	// Wait for each destination to acknowledge; an unreachable one keeps
	// its handoff spooled and is reported pending.
	for _, ds := range shippers {
		dctx, cancel := context.WithTimeout(ctx, cfg.ShipWait)
		err := ds.sh.Drain(dctx)
		cancel()
		if err != nil {
			report.Pending[ds.dest] = ds.sh.PendingFrames()
		}
		// Close alone does not stop a shipper that still holds undelivered
		// spooled frames (it would retry the dial forever); cancel its Run
		// explicitly — the staged frames stay on disk for the replay.
		ds.sh.Close()
		ds.cancel()
		<-ds.done
	}

	// Push the redirect at every moved source's live connections —
	// shippers re-hash and reconnect now instead of discovering the move
	// on a dial timeout. Ordered after the acknowledgement wait so a
	// redirected shipper normally finds its state already installed.
	for _, src := range sources {
		c.RedirectSource(src)
	}

	// Only a fully acknowledged drain may drop the rows; otherwise they
	// stay frozen (and checkpointed that way) for the replay. Departing
	// first closes the window where a removed source's shipper could
	// redial and be given a fresh row.
	if report.Complete() {
		c.Depart(post)
		for _, src := range sources {
			if err := c.RemoveSource(src); err != nil {
				return report, err
			}
		}
		report.Removed = true
		if err := c.Checkpoint(); err != nil && c.CheckpointConfigured() {
			return report, err
		}
	}

	// The last summaries this shard ever produced must still reach the
	// aggregator; the uplink spool survives a failure here for the next
	// attempt.
	if cfg.Uplink != nil {
		uctx, cancel := context.WithTimeout(ctx, cfg.ShipWait)
		err := cfg.Uplink.Drain(uctx)
		cancel()
		if err != nil {
			return report, fmt.Errorf("agg: drain uplink: %w", err)
		}
	}
	return report, nil
}
