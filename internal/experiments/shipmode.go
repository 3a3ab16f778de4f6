package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/ship"
)

// ShipConfig configures the engine behind `fluct -ship addr`: a worker that
// generates workload rounds and ships each round's trace set to a central
// fluctd collector instead of integrating locally.
type ShipConfig struct {
	// Addr is the collector's shipper port (fluctd -listen).
	Addr string
	// Workload selects what each round runs: "request" (default) or
	// "dataplane" — same selector as MonitorConfig.Workload.
	Workload string
	// Source tags this worker in the collector's fleet view.
	Source string
	// Rounds is how many rounds to generate and ship; 0 means run until the
	// context dies.
	Rounds int
	// Requests per round (default 300, matching -serve).
	Requests int
	// Interval between rounds (default 250ms, matching -serve).
	Interval time.Duration
	// Faults optionally wraps the collector connection in a network fault
	// plan (faults.ParsePlan syntax, net= keys) so shipping can be exercised
	// over a damaged link.
	Faults string
	// SpoolDir makes delivery survive worker restarts: frames are written
	// through a disk-backed spool and retransmitted until acked. Empty keeps
	// unacknowledged frames in memory only, and a round that finds the
	// queue past its admission line is refused whole.
	SpoolDir string
	// Registry receives the shipper's self-telemetry (nil: obs.Default()).
	Registry *obs.Registry
}

// ShipStats reports what a ShipRounds run delivered.
type ShipStats struct {
	Rounds     uint64
	Frames     uint64
	Bytes      uint64
	Dropped    uint64
	Reconnects uint64
	// Undelivered counts frames not yet acknowledged when the final drain
	// deadline expired — nonzero means the collector did not confirm the
	// whole run. With a spool those frames survive on disk and a restarted
	// worker retransmits them.
	Undelivered uint64
}

// Render writes the stats as a one-line worker summary.
func (st ShipStats) Render(w io.Writer) {
	fmt.Fprintf(w, "shipped %d rounds: %d frames, %d bytes, %d dropped, %d reconnects\n",
		st.Rounds, st.Frames, st.Bytes, st.Dropped, st.Reconnects)
	if st.Undelivered > 0 {
		fmt.Fprintf(w, "WARNING: %d frames undelivered at exit — the collector's view of this run is incomplete\n",
			st.Undelivered)
	}
}

// ShipRounds runs the `fluct -ship` worker loop: generate a workload round,
// ship its trace set, sleep the interval, repeat. The shipper's
// whole-set admission and reconnect loop mean an unreachable collector
// degrades telemetry (refused rounds accumulate in Dropped) without ever
// stalling the round cadence — the same never-block contract the in-process
// collection path keeps.
func ShipRounds(ctx context.Context, cfg ShipConfig) (ShipStats, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 300
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if err := validWorkload(cfg.Workload); err != nil {
		return ShipStats{}, fmt.Errorf("ship: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}

	// Rounds are short and the link is often loopback: the production
	// default backoff (50ms–5s) would let a lossy link outlive the drain
	// deadline, ending the run with frames still queued. Reconnect fast — a
	// link that cuts one write in five carries about two frames per
	// connection, so a round is some 600 reconnects.
	shipCfg := ship.Config{
		Addr:       cfg.Addr,
		Source:     cfg.Source,
		Registry:   reg,
		SpoolDir:   cfg.SpoolDir,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: time.Second,
	}
	if cfg.Faults != "" {
		plan, err := faults.ParsePlan(cfg.Faults)
		if err != nil {
			return ShipStats{}, fmt.Errorf("ship: %w", err)
		}
		if plan.Net.Mode != faults.NetNone {
			wrapped := faults.WrapDial(plan.Net, func(addr string) (net.Conn, error) {
				var d net.Dialer
				return d.Dial("tcp", addr)
			})
			shipCfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
				return wrapped(addr)
			}
		}
	}
	s, err := ship.New(shipCfg)
	if err != nil {
		return ShipStats{}, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(runCtx) }()

	var st ShipStats
	for round := 0; cfg.Rounds == 0 || round < cfg.Rounds; round++ {
		set, err := roundSet(cfg.Workload, cfg.Requests)
		if err != nil {
			cancel()
			<-done
			return st, err
		}
		if err := s.ShipSet(set); err == nil {
			st.Rounds++
		} else if !errors.Is(err, ship.ErrQueueFull) {
			cancel()
			<-done
			return st, err
		}
		if ctx.Err() != nil {
			break
		}
		if cfg.Rounds != 0 && round == cfg.Rounds-1 {
			break // last round: drain instead of sleeping
		}
		select {
		case <-ctx.Done():
		case <-time.After(cfg.Interval):
		}
		if ctx.Err() != nil {
			break
		}
	}

	// Best-effort drain so a finite run delivers everything it queued; an
	// unreachable collector still ends the run after the drain deadline,
	// with the leftovers reported rather than silently discarded.
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
	_ = s.Drain(drainCtx)
	drainCancel()
	st.Undelivered = s.PendingFrames()
	cancel()
	<-done

	st.Frames = reg.Counter("fluct_ship_frames_sent_total").Value()
	st.Bytes = reg.Counter("fluct_ship_bytes_sent_total").Value()
	st.Dropped = reg.Counter("fluct_ship_dropped_frames_total").Value()
	st.Reconnects = reg.Counter("fluct_ship_reconnects_total").Value()
	return st, ctx.Err()
}
