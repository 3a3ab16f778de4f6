package collector

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/detect"
	"repro/internal/pmu"
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

// verdictCapture collects the collector's verdict streams per source.
// OnVerdict and OnVerdicts run under the source's apply mutex, on its
// connection goroutine; the mutex makes the test-side read safe once
// shipping has drained.
type verdictCapture struct {
	mu      sync.Mutex
	streams map[string][]string
	last    map[string]wire.VerdictSet
}

func newVerdictCapture() *verdictCapture {
	return &verdictCapture{streams: map[string][]string{}, last: map[string]wire.VerdictSet{}}
}

func (vc *verdictCapture) onVerdict(v detect.Verdict) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.streams[v.Source] = append(vc.streams[v.Source], v.String())
}

func (vc *verdictCapture) onVerdicts(vs wire.VerdictSet) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.last[vs.Source] = vs
}

// detectRun ships set from every named source at once into a fresh
// collector with the detector on, checks each source's verdicts for the
// built-in regression, and returns each source's verdict state rendered
// without its source name: the stream, the active-event count and the
// published snapshot.
func detectRun(t *testing.T, set *trace.Set, sources ...string) map[string]string {
	t.Helper()
	vc := newVerdictCapture()
	coll, addr := startCollector(t, Config{
		Detect:     &detect.Config{},
		OnVerdict:  vc.onVerdict,
		OnVerdicts: vc.onVerdicts,
	})
	shipAtOnce(t, coll, addr, set, sources...)
	vc.mu.Lock()
	defer vc.mu.Unlock()
	out := map[string]string{}
	for _, id := range sources {
		stream := strings.Join(vc.streams[id], "\n")
		if stream == "" {
			t.Fatalf("%s: built-in regression produced no verdicts", id)
		}
		if !strings.Contains(stream, "table_lookup") {
			t.Fatalf("%s: verdict stream blames the wrong function:\n%s", id, stream)
		}
		active, verdicts := coll.Source(id).Verdicts()
		last, ok := vc.last[id]
		if !ok {
			t.Fatalf("%s: OnVerdicts never fired", id)
		}
		if len(last.Verdicts) != len(verdicts) {
			t.Fatalf("%s: snapshot %+v disagrees with Source.Verdicts() (%d verdicts)", id, last, len(verdicts))
		}
		for i := range verdicts {
			verdicts[i].Source = ""
		}
		out[id] = fmt.Sprintf("%s\nactive=%d\npublished=%+v", stream, active, verdicts)
	}
	return out
}

// TestDetectDeterminism is the detector's ordering property test: a
// source's verdict stream depends only on what it shipped. Two sources
// ship the same set into one collector at once, and each one's verdict
// state must be byte-identical to its solo run — a source's items apply
// under its own apply mutex, in its own admission order, whatever the
// other connection does. The whole run repeats once. It also pins the
// content: the built-in mid-stream regression must blame table_lookup.
func TestDetectDeterminism(t *testing.T) {
	set := verdictWorkloadSet(t, 300)
	for round := 1; round <= 2; round++ {
		both := detectRun(t, set, "det-a", "det-b")
		for _, id := range []string{"det-a", "det-b"} {
			if solo := detectRun(t, set, id)[id]; both[id] != solo {
				t.Errorf("round %d: %s's verdicts beside another source differ from its solo run:\n%s\nvs\n%s",
					round, id, both[id], solo)
			}
		}
	}
}

// TestDetectFleetEndpoints: with detection on, the fired verdicts surface
// in the fleet view, /verdicts, and the /healthz detect condition.
func TestDetectFleetEndpoints(t *testing.T) {
	coll, addr := startCollector(t, Config{Detect: &detect.Config{}})
	shipAtOnce(t, coll, addr, verdictWorkloadSet(t, 300), "worker-fleet")

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
	var n FleetCounts
	for _, s := range v.Sources {
		verdicts := 0
		for _, vd := range v.Verdicts {
			if vd.Source == s.ID {
				verdicts++
			}
		}
		n.Add(s.Degraded, s.Sets, s.LostMarkers+s.LostSamples, s.ActiveVerdicts, verdicts)
	}
	h := FleetStatus(n).Health()
	if h.OK || h.Status != "degraded" {
		t.Fatalf("fleet health with active events = %+v, want degraded", h)
	}
	if live := coll.Health(); !reflect.DeepEqual(live, h) {
		t.Fatalf("collector health %+v, want the fleet view's %+v", live, h)
	}
	if !strings.Contains(h.Detail, "unresolved fluctuation") {
		t.Fatalf("health detail %q missing the detect condition", h.Detail)
	}
}
