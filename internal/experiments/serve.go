package experiments

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads/dpchain"
)

// MonitorConfig configures the engine behind `fluct -serve`.
type MonitorConfig struct {
	// Workload selects the traced workload behind each round: "request"
	// (default, the canonical two-core lookup+render loop) or "dataplane"
	// (the compiled ACL → LPM function chain from internal/dataplane).
	Workload string
	// Requests per simulated round (default 300, split across two cores).
	Requests int
	// Interval between rounds (default 250ms). Run sleeps this long after
	// each round; RunOnce ignores it.
	Interval time.Duration
	// Faults optionally degrades every round's trace on the way into the
	// integrator (faults.ParsePlan syntax, e.g. "loss=0.2,burst=64") so a
	// demo server shows a degraded /healthz. The seed advances per round,
	// so each round's damage differs — as production's would.
	Faults string
	// Detect runs the online fluctuation detector over the item stream:
	// /healthz gains a "detect" condition that degrades while change
	// events are unresolved, and fluct_detect_* metrics appear on
	// /metrics. Pair with Faults "fnslow=..." to watch a verdict fire.
	Detect bool
}

// Monitor runs the online integration pipeline continuously — a simulated
// two-core request workload per round, streamed through a StreamIntegrator
// — and publishes the analyzer's own vitals to the obs default registry so
// they can be scraped mid-flight from /metrics, while /healthz reports the
// most recent trace.GapSummary verdict. A round takes a few milliseconds
// of real time; the interval between rounds keeps the process idle-cool
// while still updating faster than any sane scrape cadence.
type Monitor struct {
	cfg  MonitorConfig
	plan *faults.Plan
	det  *detect.Detector // nil unless cfg.Detect; owned by the Run goroutine

	mu        sync.Mutex
	gaps      trace.Gaps
	rounds    uint64
	detStats  detect.Stats   // snapshot taken after each round
	detRecent detect.Verdict // strongest recent verdict (zero until one fires)
}

// NewMonitor validates cfg and builds a monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 300
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	if err := validWorkload(cfg.Workload); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	m := &Monitor{cfg: cfg}
	if cfg.Faults != "" {
		plan, err := faults.ParsePlan(cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		m.plan = &plan
	}
	return m, nil
}

// WorkloadRound generates one round of the canonical two-core request
// workload: a lookup with a rare (~1/97) cold-chain stall plus a fixed-cost
// render, PEBS-sampled per core. It is the trace source behind both
// `fluct -serve` rounds and `fluct -ship` rounds, so a local monitor and a
// fleet shipper observe the same workload shape.
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
		// (a genuine gap the detector would rightly flag), so the monitor
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

// validWorkload checks a MonitorConfig/ShipConfig workload selector.
func validWorkload(workload string) error {
	switch workload {
	case "", "request", "dataplane":
		return nil
	}
	return fmt.Errorf("unknown workload %q (want request|dataplane)", workload)
}

// roundSet generates one round of the selected workload — the single
// dispatch point shared by -serve and -ship, so both observe identical
// workload shapes.
func roundSet(workload string, requests int) (*trace.Set, error) {
	if workload == "dataplane" {
		return dpchain.Round(requests)
	}
	return WorkloadRound(requests), nil
}

// RunOnce executes one round: generate a fresh trace from the simulated
// workload, degrade it if configured, health-check it, and stream-integrate
// it with full self-telemetry. Safe to call concurrently with scrapes (the
// registry is lock-free for readers; the health verdict is mutex-guarded).
func (m *Monitor) RunOnce() error {
	reg := obs.Default()
	sp := obs.StartSpan("serve.round")
	defer sp.End()

	set, err := roundSet(m.cfg.Workload, m.cfg.Requests)
	if err != nil {
		return err
	}
	if m.plan != nil {
		plan := *m.plan
		plan.Seed += m.Rounds() // fresh damage every round, still deterministic
		set, _ = faults.Perturb(set, plan)
	}

	gaps := set.GapSummary(pmu.UopsRetired)
	m.mu.Lock()
	m.gaps = gaps
	m.rounds++
	m.mu.Unlock()
	reg.Counter("fluct_serve_rounds_total").Inc()

	if m.cfg.Detect && m.det == nil {
		// Built on the first round because the detector needs the trace
		// clock for its ns verdicts; the workload's frequency is fixed.
		det, err := detect.New(detect.Config{Source: "serve", FreqHz: set.FreqHz, Registry: reg})
		if err != nil {
			return err
		}
		m.det = det
	}

	integ, err := core.NewStreamIntegrator(set.Syms, core.Options{}, func(*core.Item) {})
	if err != nil {
		return err
	}
	integ.OnItem = func(it *core.Item) {
		if m.det != nil {
			m.det.Update(it)
		}
		integ.Recycle(it)
	}
	feedStream(integ, set)
	integ.Close()
	integ.Diag().Publish(reg)
	set.Syms.Publish(reg)

	if m.det != nil {
		st := m.det.Stats()
		state := m.det.State()
		m.mu.Lock()
		m.detStats = st
		for _, v := range state.Recent {
			// Keep the strongest (rank 0) verdict of the newest event for
			// the health detail line.
			if v.Rank == 0 {
				m.detRecent = v
			}
		}
		m.mu.Unlock()
	}
	return nil
}

// Run executes rounds until ctx is cancelled.
func (m *Monitor) Run(ctx context.Context) error {
	for {
		if err := m.RunOnce(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(m.cfg.Interval):
		}
	}
}

// Rounds returns how many rounds have completed.
func (m *Monitor) Rounds() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rounds
}

// Health renders the /healthz verdict as the merge of two named
// conditions — "transport" (the latest GapSummary) and, with Detect on,
// "detect" (unresolved change events) — via health.Status, the same
// layering fluctd's fleet endpoints use. Before the first round completes
// it reports healthy-but-starting.
func (m *Monitor) Health() obs.Health {
	m.mu.Lock()
	gaps, rounds := m.gaps, m.rounds
	ds, recent := m.detStats, m.detRecent
	m.mu.Unlock()
	if rounds == 0 {
		return obs.Health{OK: true, Status: "starting", Detail: "no round completed yet"}
	}
	var bursts, imbalance int
	for _, c := range gaps.PerCore {
		bursts += c.SuspectBursts
		imbalance += c.MarkerImbalance()
	}
	var st health.Status
	st.Add(health.Condition{
		Name:   "transport",
		OK:     !gaps.Degraded(),
		Detail: gaps.String(),
		Fields: map[string]float64{
			"rounds":           float64(rounds),
			"cores":            float64(len(gaps.PerCore)),
			"est_lost_samples": float64(gaps.TotalEstLostSamples()),
			"suspect_bursts":   float64(bursts),
			"marker_imbalance": float64(imbalance),
		},
	})
	if m.cfg.Detect {
		c := health.Condition{
			Name:   "detect",
			OK:     ds.Active == 0,
			Detail: "no active fluctuation events",
			Fields: map[string]float64{
				"active_events":  float64(ds.Active),
				"changepoints":   float64(ds.Changepoints),
				"verdicts_total": float64(ds.Verdicts),
			},
		}
		if ds.Active > 0 {
			c.Detail = fmt.Sprintf("%d unresolved fluctuation events; latest: %s", ds.Active, recent)
		}
		st.Add(c)
	}
	return st.Health()
}

// Handler returns the full self-telemetry HTTP surface wired to this
// monitor's health verdict (see obs.Handler for the endpoints).
func (m *Monitor) Handler() http.Handler {
	return obs.Handler(obs.HandlerOptions{Health: m.Health})
}

// feedStream replays a set into a stream integrator in stream feed order
// (trace.Set.FeedOrder) — the order a live per-core ring drain delivers.
func feedStream(s *core.StreamIntegrator, set *trace.Set) {
	for _, r := range set.FeedOrder() {
		if r < 0 {
			s.Marker(set.Markers[^r])
		} else {
			s.Sample(set.Samples[r])
		}
	}
}
