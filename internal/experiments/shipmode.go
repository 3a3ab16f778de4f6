package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/agg"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/ship"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads/dpchain"
)

// ShipConfig configures the engine behind `fluct -ship addr` and
// `fluct -serve`: a worker that generates workload rounds and ships each
// round's trace set to a collector — a central fluctd, or the in-process
// one -serve starts (StartCollector).
type ShipConfig struct {
	// Addr is the collector's shipper port (fluctd -listen).
	Addr string
	// Workload selects what each round runs: "request" (default, the
	// canonical two-core lookup+render loop) or "dataplane" (the compiled
	// ACL → LPM function chain from internal/dataplane).
	Workload string
	// Source tags this worker in the collector's fleet view.
	Source string
	// Rounds is how many rounds to generate and ship; 0 means run until the
	// context dies.
	Rounds int
	// Requests per round (default 300).
	Requests int
	// Faults optionally degrades the run (faults.ParsePlan syntax). Its
	// trace keys perturb every round's set before it ships, with the seed
	// advanced by the round index so each round's damage differs, as
	// production's would ("loss=0.2,burst=64", "fnslow=table_lookup");
	// its net* keys wrap the collector connection ("net=cutframe").
	Faults string
	// SpoolDir makes delivery survive worker restarts: frames are written
	// through a disk-backed spool and retransmitted until acked. Empty keeps
	// unacknowledged frames in memory only, and a round that finds the
	// queue past its admission line is refused whole.
	SpoolDir string

	// interval between rounds (default 250ms); tests ship back to back.
	interval time.Duration
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
	if cfg.interval <= 0 {
		cfg.interval = 250 * time.Millisecond
	}
	if err := validWorkload(cfg.Workload); err != nil {
		return ShipStats{}, fmt.Errorf("ship: %w", err)
	}
	reg := obs.Default()

	// Rounds are short and the link is often loopback: the production
	// default backoff (50ms–5s) would let a lossy link outlive the drain
	// deadline, ending the run with frames still queued. Reconnect fast — a
	// link that cuts one write in five carries about two frames per
	// connection, so a round is some 600 reconnects. A departed shard
	// answers every handshake with TRedirect: re-hash the source over the
	// redirect's members, the rule fluct -ship's first dial uses, so the
	// worker follows a drain to its source's new owner.
	shipCfg := ship.Config{
		Addr:       cfg.Addr,
		Source:     cfg.Source,
		Registry:   reg,
		SpoolDir:   cfg.SpoolDir,
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: time.Second,
		OnRedirect: func(members []string) string {
			return agg.NewRing(members...).Owner(cfg.Source)
		},
	}
	plan, err := faults.ParsePlan(cfg.Faults)
	if err != nil {
		return ShipStats{}, fmt.Errorf("ship: %w", err)
	}
	// Only a plan with trace keys perturbs the rounds; a net-only plan
	// ships them pristine.
	tracePlan := plan
	tracePlan.Seed, tracePlan.Net = 0, faults.NetPlan{}
	perturb := tracePlan != faults.Plan{}
	if plan.Net.Active() {
		wrapped := faults.WrapDial(plan.Net, func(addr string) (net.Conn, error) {
			var d net.Dialer
			return d.Dial("tcp", addr)
		})
		shipCfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return wrapped(addr)
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
		if perturb {
			p := plan
			p.Seed += uint64(round)
			set, _ = faults.Perturb(set, p)
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
		case <-time.After(cfg.interval):
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

// WorkloadRound generates one round of the canonical two-core request
// workload: a lookup with a rare (~1/97) cold-chain stall plus a fixed-cost
// render, PEBS-sampled per core. It is the trace source behind the
// request rounds `fluct -serve` and `fluct -ship` ship, and the round the
// network and crash sweeps ship.
func WorkloadRound(requests int) *trace.Set {
	if requests <= 0 {
		requests = 300
	}
	const cores = 2
	mach := sim.MustNew(sim.Config{Cores: cores})
	lookup := mach.Syms.MustRegister("table_lookup", 4096)
	render := mach.Syms.MustRegister("render_reply", 2048)
	// One PEBS unit per core, as the hardware has one debug-store buffer
	// per core — and because the spawned workload threads really run
	// concurrently, a shared recorder would race.
	pebs := make([]*pmu.PEBS, cores)
	log := trace.NewMarkerLog(cores, 0)

	perCore := requests / cores
	for ci := 0; ci < cores; ci++ {
		first := uint64(ci*perCore) + 1
		// The 1000-uop period keeps every function's per-item visit a
		// multi-sample run, which both sharpens the per-function estimates
		// and lets an injected fnslow dilation actually stretch something.
		// At that rate the buffer-full drain handshake would lose samples
		// (a genuine gap the detector would rightly flag), so the round
		// runs the double-buffered PEBS variant.
		pebs[ci] = pmu.NewPEBS(pmu.PEBSConfig{DoubleBuffer: true})
		mach.Core(ci).PMU.MustProgram(pmu.UopsRetired, 1000, pebs[ci])
		mach.MustSpawn(ci, func(c *sim.Core) {
			// Warm the lookup table before the first marked item: the
			// cold-miss chain otherwise stretches item 1 to ~5× the steady
			// state, and its sparse retirement reads as a PEBS loss burst
			// to the gap detector. The interleaved Exec keeps samples
			// flowing through the warmup itself.
			for l := 0; l < 200; l++ {
				c.Load(0x5000_0000 + uint64(l)*64)
				c.Exec(200)
			}
			for r := 0; r < perCore; r++ {
				id := first + uint64(r)
				log.Mark(c, id, trace.ItemBegin)
				c.Call(lookup, func() {
					for l := 0; l < 200; l++ {
						c.Load(0x5000_0000 + uint64(l)*64)
						c.Exec(12)
					}
					if id%97 == 0 {
						// The rare non-functional state: every ~97th request
						// walks a cold chain and retires far more work. It
						// surfaces in the p99 of fluct_core_item_cycles —
						// extra retired uops keep PEBS firing, so the gap
						// detector correctly stays quiet.
						c.Exec(30000)
					}
				})
				c.Call(render, func() { c.Exec(6000) })
				log.Mark(c, id, trace.ItemEnd)
				c.Exec(800)
			}
		})
	}
	mach.Wait()

	return trace.NewSet(mach, log, pmu.MergeSamples(pebs...))
}

// validWorkload checks a ShipConfig workload selector.
func validWorkload(workload string) error {
	switch workload {
	case "", "request", "dataplane":
		return nil
	}
	return fmt.Errorf("unknown workload %q (want request|dataplane)", workload)
}

// roundSet generates one round of the selected workload — the single
// dispatch point behind every ShipRounds round, -serve's and -ship's
// alike.
func roundSet(workload string, requests int) (*trace.Set, error) {
	if workload == "dataplane" {
		return dpchain.Round(requests)
	}
	return WorkloadRound(requests), nil
}
