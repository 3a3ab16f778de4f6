package collector

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/ship"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// verdictWorkloadSet builds a trace whose second half slows table_lookup
// by a built-in factor — a change the detector must find without any
// fault injection, so the test owns its ground truth end to end.
func verdictWorkloadSet(t testing.TB, requests int) *trace.Set {
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

// verdictCapture collects the collector's verdict stream. OnVerdict runs
// on the source's ingest-shard goroutine; the mutex makes the test-side
// read safe once shipping has drained.
type verdictCapture struct {
	mu       sync.Mutex
	stream   []string
	snapshot []wire.VerdictSet
}

func (vc *verdictCapture) onVerdict(v detect.Verdict) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.stream = append(vc.stream, fmt.Sprintf("%s %s", v.Source, v))
}

func (vc *verdictCapture) onVerdicts(vs wire.VerdictSet) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.snapshot = append(vc.snapshot, vs)
}

func (vc *verdictCapture) rendered() string {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return strings.Join(vc.stream, "\n")
}

// shipOnce ships one set into a fresh collector configured with the
// detector and returns the rendered verdict stream plus the source's
// published snapshot.
func shipOnce(t *testing.T, set *trace.Set, shards int) (string, int, []detect.Verdict, *verdictCapture) {
	t.Helper()
	vc := &verdictCapture{}
	coll, addr := startCollector(t, Config{
		Registry:     obs.NewRegistry(),
		IngestShards: shards,
		Detect:       &detect.Config{},
		OnVerdict:    vc.onVerdict,
		OnVerdicts:   vc.onVerdicts,
	})
	// A 300-item set interleaves markers and samples into ~1200 frames —
	// past the default 1024-frame admission line, which would refuse the
	// next set while this one awaits its ack. Backpressure is not under
	// test here; size the queue for several sets.
	s, err := ship.New(ship.Config{Addr: addr, Source: "worker-det", Registry: obs.NewRegistry(), QueueFrames: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	if err := s.ShipSet(set); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	src := waitSets(t, coll, "worker-det", 1, 20*time.Second)
	cancel()
	<-done
	active, verdicts := src.Verdicts()
	return vc.rendered(), active, verdicts, vc
}

// TestDetectShardDeterminism is the detector's ordering property test:
// the same shipped input must produce a byte-identical verdict stream at
// every ingest shard count, because a source's items are always applied
// on its single home shard goroutine. It also pins the content: the
// built-in mid-stream regression must blame table_lookup.
func TestDetectShardDeterminism(t *testing.T) {
	set := verdictWorkloadSet(t, 300)
	type run struct {
		shards  int
		stream  string
		active  int
		verdict []detect.Verdict
	}
	var runs []run
	for _, shards := range []int{1, 4, 1} { // repeat shards=1: same-setting determinism too
		stream, active, verdicts, vc := shipOnce(t, set, shards)
		if stream == "" {
			t.Fatalf("shards=%d: built-in regression produced no verdicts", shards)
		}
		if !strings.Contains(stream, "table_lookup") {
			t.Fatalf("shards=%d: verdict stream blames the wrong function:\n%s", shards, stream)
		}
		vc.mu.Lock()
		if len(vc.snapshot) == 0 {
			t.Fatalf("shards=%d: OnVerdicts never fired", shards)
		}
		last := vc.snapshot[len(vc.snapshot)-1]
		vc.mu.Unlock()
		if last.Source != "worker-det" || len(last.Verdicts) != len(verdicts) {
			t.Fatalf("shards=%d: snapshot %+v disagrees with Source.Verdicts() (%d verdicts)",
				shards, last, len(verdicts))
		}
		runs = append(runs, run{shards: shards, stream: stream, active: active, verdict: verdicts})
	}
	for _, r := range runs[1:] {
		if r.stream != runs[0].stream {
			t.Errorf("verdict stream differs between shards=%d and shards=%d:\n%s\nvs\n%s",
				runs[0].shards, r.shards, runs[0].stream, r.stream)
		}
		if r.active != runs[0].active {
			t.Errorf("active events differ: shards=%d got %d, shards=%d got %d",
				runs[0].shards, runs[0].active, r.shards, r.active)
		}
		if fmt.Sprintf("%+v", r.verdict) != fmt.Sprintf("%+v", runs[0].verdict) {
			t.Errorf("published snapshots differ between shard counts")
		}
	}
}

// TestDetectFleetEndpoints: with detection on, the fired verdicts surface
// in the fleet view, /verdicts, and the /healthz detect condition.
func TestDetectFleetEndpoints(t *testing.T) {
	set := verdictWorkloadSet(t, 300)
	vc := &verdictCapture{}
	coll, addr := startCollector(t, Config{
		Registry:   obs.NewRegistry(),
		Detect:     &detect.Config{},
		OnVerdict:  vc.onVerdict,
		OnVerdicts: vc.onVerdicts,
	})
	s, err := ship.New(ship.Config{Addr: addr, Source: "worker-fleet", Registry: obs.NewRegistry(), QueueFrames: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	if err := s.ShipSet(set); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	waitSets(t, coll, "worker-fleet", 1, 20*time.Second)
	cancel()
	<-done

	v := coll.Fleet()
	if len(v.Verdicts) == 0 {
		t.Fatal("fleet view carries no verdicts")
	}
	if v.Sources[0].ActiveVerdicts == 0 {
		t.Error("source summary shows no active verdicts despite an unresolved event")
	}
	vv := VerdictsOf(v)
	if vv.Active == 0 || len(vv.Verdicts) != len(v.Verdicts) {
		t.Errorf("VerdictsOf = %d active, %d verdicts; fleet has %d", vv.Active, len(vv.Verdicts), len(v.Verdicts))
	}
	h := FleetHealth(v)
	if h.OK || h.Status != "degraded" {
		t.Fatalf("fleet health with active events = %+v, want degraded", h)
	}
	if !strings.Contains(h.Detail, "unresolved fluctuation") {
		t.Fatalf("health detail %q missing the detect condition", h.Detail)
	}
}
