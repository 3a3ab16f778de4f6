package agg

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/ship"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The drain-chaos harness extends the two-tier byte-equivalence bar to
// mid-life rebalances: a fleet that drains (and, in the second test,
// kills) a shard collector mid-set must still converge to a merged
// report byte-identical to an undisturbed single collector, with the
// detector verdict streams of the moved sources unbroken across the
// move — zero lost sets, zero duplicate applications.

// regressionSet builds a trace whose second half slows table_lookup — the
// detector's ground-truth regression, rebuilt from collector's detector
// harness because the two packages cannot share test code. Shipped after
// a handoff, the verdicts it fires depend on the detector state that
// moved: a broken transfer shows up as a diverging verdict stream.
func regressionSet(t testing.TB, requests int) *trace.Set {
	t.Helper()
	const cores = 2
	m := sim.MustNew(sim.Config{Cores: cores})
	lookup := m.Syms.MustRegister("table_lookup", 4096)
	render := m.Syms.MustRegister("render_reply", 2048)
	pebs := make([]*pmu.PEBS, cores)
	log := trace.NewMarkerLog(cores, 0)
	perCore := requests / cores
	for ci := 0; ci < cores; ci++ {
		first := uint64(ci*perCore) + 1
		pebs[ci] = pmu.NewPEBS(pmu.PEBSConfig{DoubleBuffer: true})
		m.Core(ci).PMU.MustProgram(pmu.UopsRetired, 1000, pebs[ci])
		m.MustSpawn(ci, func(c *sim.Core) {
			for r := 0; r < perCore; r++ {
				id := first + uint64(r)
				cost := uint64(4000)
				if r >= perCore/2 {
					cost = 12000 // the injected regression, mid-stream
				}
				log.Mark(c, id, trace.ItemBegin)
				c.Call(lookup, func() { c.Exec(cost) })
				c.Call(render, func() { c.Exec(5000) })
				log.Mark(c, id, trace.ItemEnd)
				c.Exec(700)
			}
		})
	}
	m.Wait()
	var samples []pmu.Sample
	for _, p := range pebs {
		samples = append(samples, p.Samples()...)
	}
	return trace.NewSet(m, log, samples)
}

// verdictStreams captures per-source verdict streams in emission order.
// Both shards of the fleet share one instance: a source's pre-move
// verdicts (old owner) and post-move verdicts (new owner) land in the
// same slice, which must then equal the undisturbed reference stream.
type verdictStreams struct {
	mu sync.Mutex
	m  map[string][]string
}

func (vs *verdictStreams) on(v detect.Verdict) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.m == nil {
		vs.m = map[string][]string{}
	}
	vs.m[v.Source] = append(vs.m[v.Source], v.String())
}

func (vs *verdictStreams) of(source string) string {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return strings.Join(vs.m[source], "\n")
}

// fleetWorker is a persistent, spooled worker shipper that survives the
// whole test: it follows TRedirect by re-hashing its source over the
// pushed membership table, exactly like a production shipper.
type fleetWorker struct {
	source string
	s      *ship.Shipper
	cancel context.CancelFunc
	done   chan error
}

func startWorker(t testing.TB, source, addr, spoolDir string, dial ship.DialFunc) *fleetWorker {
	t.Helper()
	s, err := ship.New(ship.Config{
		Addr: addr, Source: source, SpoolDir: spoolDir, Dial: dial,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		// A 300-item set interleaves markers and samples into ~1200 frames —
		// past the default 1024-frame admission line, which would refuse the
		// next set while this one awaits its ack. Backpressure is not under
		// test here; size the queue for several sets.
		QueueFrames: 1 << 13,
		OnRedirect: func(members []string) string {
			return NewRing(members...).Owner(source)
		},
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &fleetWorker{source: source, s: s, cancel: cancel, done: make(chan error, 1)}
	go func() { w.done <- s.Run(ctx) }()
	return w
}

func (w *fleetWorker) ship(t testing.TB, sets ...*trace.Set) {
	t.Helper()
	for _, set := range sets {
		if err := w.s.ShipSet(set); err != nil {
			t.Fatalf("worker %s: %v", w.source, err)
		}
	}
}

func (w *fleetWorker) stop() {
	w.s.Close()
	w.cancel()
	<-w.done
}

// pickOwned returns count deterministic source IDs owned by shard under
// ring, drawn from a fixed candidate sequence.
func pickOwned(t testing.TB, ring *Ring, shard string, count int) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < count; i++ {
		if i > 10000 {
			t.Fatalf("no %d sources hash to %s", count, shard)
		}
		src := fmt.Sprintf("drain-w%03d", i)
		if ring.Owner(src) == shard {
			out = append(out, src)
		}
	}
	return out
}

// waitFleetEqual polls until the aggregator's merged fleet report is
// byte-identical to the reference collector's and the merged verdicts
// deep-equal — the summaries and verdict snapshots arrive asynchronously
// over the uplinks.
func waitFleetEqual(t testing.TB, a *Aggregator, ref *collector.Collector, timeout time.Duration) {
	t.Helper()
	want := renderFleet(ref.Fleet())
	refVerdicts := ref.Fleet().Verdicts
	deadline := time.Now().Add(timeout)
	for {
		fv := a.Fleet()
		if bytes.Equal(renderFleet(fv), want) && reflect.DeepEqual(fv.Verdicts, refVerdicts) {
			return
		}
		if time.Now().After(deadline) {
			got := renderFleet(fv)
			if !bytes.Equal(got, want) {
				t.Fatalf("merged fleet report differs from single-collector report: %s",
					firstDiff(string(got), string(want)))
			}
			t.Fatalf("merged verdicts differ:\n got: %+v\nwant: %+v", fv.Verdicts, refVerdicts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDrainHandoffEquivalence drains shard-a mid-set: its sources'
// checkpoint rows, detector baselines, and dedup watermarks move to
// shard-b over the handoff protocol, shippers follow the pushed redirect,
// and the post-move regression sets must fire the exact verdicts the
// undisturbed reference fires — the detector stream is unbroken across
// the move.
func TestDrainHandoffEquivalence(t *testing.T) {
	const topK = 8
	members := []string{"shard-a", "shard-b"}
	ring := NewRing(members...)
	moved := pickOwned(t, ring, "shard-a", 2)
	stays := pickOwned(t, ring, "shard-b", 1)
	sources := append(append([]string(nil), moved...), stays...)

	clean := workloadSet(t, 40)
	regr := regressionSet(t, 300)
	mid := workloadSet(t, 60)

	// Two-tier side: aggregator, two detector-enabled shards.
	a, err := New(Config{TopK: topK, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	aggDial := pipeDial(a.HandleConn)
	fleetVS := &verdictStreams{}
	regB := obs.NewRegistry()
	cfgA := collector.Config{TopK: topK, Detect: &detect.Config{}, OnVerdict: fleetVS.on, Registry: obs.NewRegistry()}
	cfgB := collector.Config{TopK: topK, Detect: &detect.Config{}, OnVerdict: fleetVS.on, Registry: regB}
	shardA := startShard(t, "shard-a", t.TempDir(), cfgA, aggDial)
	defer shardA.stop()
	shardB := startShard(t, "shard-b", t.TempDir(), cfgB, aggDial)
	defer shardB.stop()
	routes := map[string]func(net.Conn){
		"shard-a": shardA.coll.HandleConn,
		"shard-b": shardB.coll.HandleConn,
	}
	fleetDial := func(ctx context.Context, addr string) (net.Conn, error) {
		h := routes[addr]
		if h == nil {
			return nil, fmt.Errorf("no route to %q", addr)
		}
		client, server := net.Pipe()
		go h(server)
		return client, nil
	}

	// Reference: one undisturbed collector integrating every source.
	refVS := &verdictStreams{}
	ref, err := collector.New(collector.Config{TopK: topK, Detect: &detect.Config{}, OnVerdict: refVS.on, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	refDial := pipeDial(ref.HandleConn)

	workers := map[string]*fleetWorker{}
	refWorkers := map[string]*fleetWorker{}
	for _, src := range sources {
		workers[src] = startWorker(t, src, ring.Owner(src), t.TempDir(), fleetDial)
		refWorkers[src] = startWorker(t, src, "ref", t.TempDir(), refDial)
		defer workers[src].stop()
		defer refWorkers[src].stop()
	}

	// Wave 1: a clean baseline set and a regression set per source — the
	// detector state the handoff must carry (baseline, event numbering,
	// active events) now lives on the pre-move owner.
	for _, src := range sources {
		workers[src].ship(t, clean, regr)
		refWorkers[src].ship(t, clean, regr)
		mustDrain(t, "worker "+src, workers[src].s, 30*time.Second)
		mustDrain(t, "ref worker "+src, refWorkers[src].s, 30*time.Second)
	}

	// Start one more set toward the draining shard and begin the drain
	// while it is provably mid-flight: the quiesce must wait for the set
	// boundary, so the set completes exactly once, on the old owner.
	workers[moved[0]].ship(t, mid)
	refWorkers[moved[0]].ship(t, mid)
	openDeadline := time.Now().Add(30 * time.Second)
	for {
		src := shardA.coll.Source(moved[0])
		if src != nil && (src.SetOpen() || src.Sets() >= 3) {
			break
		}
		if time.Now().After(openDeadline) {
			t.Fatal("mid-drain set never reached shard-a")
		}
		time.Sleep(100 * time.Microsecond)
	}

	report, err := Drain(context.Background(), DrainConfig{
		Collector: shardA.coll,
		Self:      "shard-a",
		Members:   members,
		dial:      fleetDial,
		SpoolDir:  t.TempDir(),
		setWait:   30 * time.Second,
		ShipWait:  30 * time.Second,
		Uplink:    shardA.uplink,
		registry:  obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !report.Complete() || !report.Removed {
		t.Fatalf("drain did not complete: %+v", report)
	}
	if report.Sources != len(moved) || len(report.Aborted) != 0 {
		t.Fatalf("drain moved %d sources, aborted %v; want %d moved, none aborted",
			report.Sources, report.Aborted, len(moved))
	}
	for _, src := range moved {
		if got := report.Dispositions[src]; got != "installed" {
			t.Errorf("source %s handoff disposition %q, want installed", src, got)
		}
	}
	if shardA.coll.Status().OK() {
		t.Error("drained shard still reports healthy")
	}
	if dups := regB.Counter("fluct_collector_handoff_duplicates_total").Value(); dups != 0 {
		t.Errorf("clean drain produced %d duplicate imports", dups)
	}
	if imps := regB.Counter("fluct_collector_handoff_imports_total").Value(); imps != uint64(len(moved)) {
		t.Errorf("shard-b imported %d sources, want %d", imps, len(moved))
	}

	// Wave 2: the regression again, per source. The moved sources' workers
	// were redirected; their verdicts must now fire at shard-b from the
	// transferred detector state.
	for _, src := range sources {
		workers[src].ship(t, regr)
		refWorkers[src].ship(t, regr)
		mustDrain(t, "worker "+src, workers[src].s, 30*time.Second)
		mustDrain(t, "ref worker "+src, refWorkers[src].s, 30*time.Second)
	}
	wantSets := map[string]uint64{moved[0]: 4, moved[1]: 3, stays[0]: 3}
	for src, n := range wantSets {
		waitSets(t, shardB.coll, src, n, 30*time.Second)
		waitSets(t, ref, src, n, 30*time.Second)
	}
	mustDrain(t, "uplink shard-b", shardB.uplink, 30*time.Second)

	if len(ref.Fleet().Verdicts) == 0 {
		t.Fatal("reference produced no verdicts — the harness lost its teeth")
	}
	waitFleetEqual(t, a, ref, 30*time.Second)
	for _, src := range sources {
		if got, want := fleetVS.of(src), refVS.of(src); got != want {
			t.Errorf("verdict stream of %s diverged across the move:\n got: %s\nwant: %s", src, got, want)
		}
	}
	if got := fleetVS.of(moved[0]); got == "" {
		t.Error("moved source fired no verdicts — continuity untested")
	}
	for _, src := range moved {
		if shard := a.SourceShard(src); shard != "shard-b" {
			t.Errorf("aggregator still merges %s from %q, want shard-b", src, shard)
		}
	}
}

// TestDrainKillMidDrain stages a drain whose destination is unreachable
// (the handoff lands in the drain spool), kills the draining shard, and
// re-drains after a checkpoint restart. The staged handoff replays from
// the spool, the re-drain's second export is absorbed as a duplicate,
// and the fleet still converges byte-identical to the undisturbed
// reference — no double-apply, no lost state.
func TestDrainKillMidDrain(t *testing.T) {
	const topK = 8
	members := []string{"shard-a", "shard-b"}
	ring := NewRing(members...)
	moved := pickOwned(t, ring, "shard-a", 2)
	stays := pickOwned(t, ring, "shard-b", 1)
	sources := append(append([]string(nil), moved...), stays...)

	clean := workloadSet(t, 40)
	regr := regressionSet(t, 300)

	a, err := New(Config{TopK: topK, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	aggDial := pipeDial(a.HandleConn)
	fleetVS := &verdictStreams{}
	regB := obs.NewRegistry()

	// shard-a is killable: connections route through an atomic slot so a
	// restarted incarnation takes over the same address.
	type collSlot struct{ coll *collector.Collector }
	var liveA atomic.Value
	ckptA := t.TempDir() + "/shard-a.ckpt"
	uplinkSpoolA := t.TempDir()
	handoffSpool := t.TempDir() // shared by both drain attempts: the staged handoff lives here

	cfgA := collector.Config{TopK: topK, Detect: &detect.Config{}, OnVerdict: fleetVS.on,
		CheckpointPath: ckptA, Registry: obs.NewRegistry()}
	shardA1 := startShard(t, "shard-a", uplinkSpoolA, cfgA, aggDial)
	liveA.Store(collSlot{shardA1.coll})
	cfgB := collector.Config{TopK: topK, Detect: &detect.Config{}, OnVerdict: fleetVS.on, Registry: regB}
	shardB := startShard(t, "shard-b", t.TempDir(), cfgB, aggDial)
	defer shardB.stop()

	fleetDial := func(ctx context.Context, addr string) (net.Conn, error) {
		var h func(net.Conn)
		switch addr {
		case "shard-a":
			s := liveA.Load().(collSlot)
			if s.coll == nil {
				return nil, fmt.Errorf("shard-a is down")
			}
			h = s.coll.HandleConn
		case "shard-b":
			h = shardB.coll.HandleConn
		default:
			return nil, fmt.Errorf("no route to %q", addr)
		}
		client, server := net.Pipe()
		go h(server)
		return client, nil
	}
	deadDial := func(ctx context.Context, addr string) (net.Conn, error) {
		return nil, fmt.Errorf("destination unreachable")
	}

	refVS := &verdictStreams{}
	ref, err := collector.New(collector.Config{TopK: topK, Detect: &detect.Config{}, OnVerdict: refVS.on, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	refDial := pipeDial(ref.HandleConn)

	workers := map[string]*fleetWorker{}
	refWorkers := map[string]*fleetWorker{}
	for _, src := range sources {
		workers[src] = startWorker(t, src, ring.Owner(src), t.TempDir(), fleetDial)
		refWorkers[src] = startWorker(t, src, "ref", t.TempDir(), refDial)
		defer workers[src].stop()
		defer refWorkers[src].stop()
	}
	for _, src := range sources {
		workers[src].ship(t, clean, regr)
		refWorkers[src].ship(t, clean, regr)
		mustDrain(t, "worker "+src, workers[src].s, 30*time.Second)
		mustDrain(t, "ref worker "+src, refWorkers[src].s, 30*time.Second)
	}

	// Drain attempt 1: the destination is unreachable. The handoff —
	// detector snapshots included — is staged durably in the drain spool;
	// the sources freeze and checkpoint as handed off; nothing is removed.
	report1, err := Drain(context.Background(), DrainConfig{
		Collector: shardA1.coll, Self: "shard-a", Members: members,
		dial: deadDial, SpoolDir: handoffSpool,
		setWait: 30 * time.Second, ShipWait: 250 * time.Millisecond,
		Uplink: shardA1.uplink, registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("drain 1: %v", err)
	}
	if report1.Complete() || report1.Removed {
		t.Fatalf("drain against a dead destination claimed success: %+v", report1)
	}
	if report1.Pending["shard-b"] == 0 {
		t.Fatalf("nothing pending after a failed drain: %+v", report1)
	}

	// Kill mid-drain, then restart from the checkpoint: the moved sources
	// come back frozen (handed off), never accepting a frame again.
	liveA.Store(collSlot{nil})
	shardA1.stop()
	cfgA2 := collector.Config{TopK: topK, Detect: &detect.Config{}, OnVerdict: fleetVS.on,
		CheckpointPath: ckptA, Registry: obs.NewRegistry()}
	shardA2 := startShard(t, "shard-a", uplinkSpoolA, cfgA2, aggDial)
	defer shardA2.stop()
	liveA.Store(collSlot{shardA2.coll})

	// Drain attempt 2, destination reachable: the spool replays attempt
	// 1's staged handoff (with the pre-kill detector state), the re-drain's
	// own re-export follows it and must be recognized as a duplicate.
	report2, err := Drain(context.Background(), DrainConfig{
		Collector: shardA2.coll, Self: "shard-a", Members: members,
		dial: fleetDial, SpoolDir: handoffSpool,
		setWait: 30 * time.Second, ShipWait: 30 * time.Second,
		Uplink: shardA2.uplink, registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("drain 2: %v", err)
	}
	if !report2.Complete() || !report2.Removed {
		t.Fatalf("re-drain did not complete: %+v", report2)
	}
	if imps := regB.Counter("fluct_collector_handoff_imports_total").Value(); imps != uint64(len(moved)) {
		t.Errorf("shard-b applied %d imports, want %d (one per source)", imps, len(moved))
	}
	if dups := regB.Counter("fluct_collector_handoff_duplicates_total").Value(); dups != uint64(len(moved)) {
		t.Errorf("re-drain's re-export produced %d duplicates, want %d", dups, len(moved))
	}

	// Wave 2: the moved workers were redirected during attempt 1 (or are
	// redirected by the departed shard on redial); their regressions must
	// fire at shard-b from the replayed pre-kill detector state.
	for _, src := range sources {
		workers[src].ship(t, regr)
		refWorkers[src].ship(t, regr)
		mustDrain(t, "worker "+src, workers[src].s, 30*time.Second)
		mustDrain(t, "ref worker "+src, refWorkers[src].s, 30*time.Second)
	}
	for _, src := range sources {
		waitSets(t, shardB.coll, src, 3, 30*time.Second)
		waitSets(t, ref, src, 3, 30*time.Second)
	}
	mustDrain(t, "uplink shard-b", shardB.uplink, 30*time.Second)

	if len(ref.Fleet().Verdicts) == 0 {
		t.Fatal("reference produced no verdicts — the harness lost its teeth")
	}
	waitFleetEqual(t, a, ref, 30*time.Second)
	for _, src := range sources {
		if got, want := fleetVS.of(src), refVS.of(src); got != want {
			t.Errorf("verdict stream of %s diverged across the kill+re-drain:\n got: %s\nwant: %s", src, got, want)
		}
	}
}
