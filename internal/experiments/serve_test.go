package experiments

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pmu"
)

// scrape fetches a path from the serve handler and returns the body.
func scrape(t *testing.T, base, path string) (int, string) {
	t.Helper()
	cl := http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// scrapeJSON fetches a path and decodes its JSON body into v.
func scrapeJSON(t *testing.T, base, path string, v any) int {
	t.Helper()
	code, body := scrape(t, base, path)
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("%s is not JSON: %v\n%s", path, err, body)
	}
	return code
}

// serveRig is what `fluct -serve` runs, with its HTTP surface on an
// ephemeral port: a collector from StartCollector and its Handler.
type serveRig struct {
	coll *collector.Collector
	l    net.Listener // the collector's shipper port
	base string       // the HTTP surface's URL
}

func newServeRig(t *testing.T, cfg collector.Config) *serveRig {
	t.Helper()
	coll, l, err := StartCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: coll.Handler()}
	go srv.Serve(hl)
	t.Cleanup(func() { srv.Close() })
	return &serveRig{coll: coll, l: l, base: "http://" + hl.Addr().String()}
}

// ship runs cfg.Rounds rounds through ShipRounds as source "serve", the
// way -serve does. It returns once every frame is acknowledged, and the
// collector acknowledges a SetEnd only after applying its set, so every
// round is in the collector's view on return.
func (r *serveRig) ship(t *testing.T, cfg ShipConfig) {
	t.Helper()
	cfg.Addr, cfg.Source, cfg.interval = r.l.Addr().String(), "serve", time.Millisecond
	st, err := ShipRounds(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != uint64(cfg.Rounds) || st.Undelivered != 0 {
		t.Fatalf("shipped %d of %d rounds, %d frames undelivered", st.Rounds, cfg.Rounds, st.Undelivered)
	}
}

// useRegistry points obs.Default at a fresh registry for the test.
func useRegistry(t *testing.T) *obs.Registry {
	reg := obs.NewRegistry()
	old := obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(old) })
	return reg
}

// TestServeSmoke is the CI gate for `fluct -serve`: start the rig, scrape
// /healthz before any shipper connects, ship one round, then scrape
// /metrics, /healthz, /fleet, /debug/vars and /debug/pprof.
func TestServeSmoke(t *testing.T) {
	useRegistry(t)
	rig := newServeRig(t, collector.Config{})

	var h obs.Health
	if code := scrapeJSON(t, rig.base, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("/healthz before the first round: status %d, %+v", code, h)
	}
	if !h.OK || !strings.Contains(h.Detail, "no shippers connected yet") {
		t.Fatalf("/healthz before the first round = %+v, want OK with no shippers connected yet", h)
	}

	rig.ship(t, ShipConfig{Requests: 100, Rounds: 1})

	code, body := scrape(t, rig.base, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, want := range []string{
		"fluct_collector_sets_total 1",
		"fluct_core_stream_items_total",
		"fluct_core_item_cycles",
		"fluct_core_symcache_hits_total",
		"fluct_ship_frames_sent_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	if code := scrapeJSON(t, rig.base, "/healthz", &h); code != http.StatusOK {
		t.Fatalf("/healthz after a clean round: status %d, %+v", code, h)
	}
	if !h.OK || h.Status != "healthy" {
		t.Fatalf("/healthz after a clean round = %+v, want OK healthy", h)
	}
	if h.Fields["sources"] != 1 || h.Fields["sets"] != 1 || h.Fields["degraded_sources"] != 0 {
		t.Fatalf("/healthz fields = %v, want sources=1 sets=1 degraded_sources=0", h.Fields)
	}

	var fleet collector.FleetView
	scrapeJSON(t, rig.base, "/fleet", &fleet)
	if len(fleet.Sources) != 1 || fleet.Sources[0].ID != "serve" || fleet.Sources[0].Items != 100 {
		t.Fatalf("/fleet sources = %+v, want one 100-item row for source serve", fleet.Sources)
	}

	var vars map[string]json.RawMessage
	if code := scrapeJSON(t, rig.base, "/debug/vars", &vars); code != http.StatusOK {
		t.Fatalf("/debug/vars: status %d", code)
	}
	if _, ok := vars["fluct"]; !ok {
		t.Fatalf("/debug/vars missing the fluct key")
	}

	code, body = scrape(t, rig.base, "/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: status %d, body %q", code, body)
	}
}

// TestServeDegraded: the trace keys of a fault spec reach the shipped set,
// so the source's row reads degraded and /healthz answers 503 — the whole
// point of feeding the gap scan into the health endpoint.
func TestServeDegraded(t *testing.T) {
	useRegistry(t)
	rig := newServeRig(t, collector.Config{})
	rig.ship(t, ShipConfig{Requests: 100, Rounds: 1, Faults: "seed=7,loss=0.3,burst=64,mdrop=0.05"})

	var fleet collector.FleetView
	scrapeJSON(t, rig.base, "/fleet", &fleet)
	if len(fleet.Sources) != 1 || !fleet.Sources[0].Degraded ||
		!strings.Contains(fleet.Sources[0].GapLine, "DEGRADED") {
		t.Fatalf("/fleet sources = %+v, want the serve row degraded by the gap scan", fleet.Sources)
	}
	var h obs.Health
	if code := scrapeJSON(t, rig.base, "/healthz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz for a degraded round: status %d, %+v", code, h)
	}
	if h.OK || h.Status != "degraded" || h.Fields["degraded_sources"] != 1 {
		t.Fatalf("/healthz for a degraded round = %+v, want degraded with degraded_sources=1", h)
	}
}

// TestMonitorConfigErrors: a bogus fault spec or workload is refused
// before anything ships.
func TestMonitorConfigErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := ShipRounds(ctx, ShipConfig{Addr: "127.0.0.1:1", Rounds: 1, Faults: "nonsense=1"}); err == nil {
		t.Fatal("ShipRounds accepted a bogus faults spec")
	}
	if _, err := ShipRounds(ctx, ShipConfig{Addr: "127.0.0.1:1", Rounds: 1, Workload: "bogus"}); err == nil {
		t.Fatal("ShipRounds accepted an unknown workload")
	}
}

// TestServeDataplaneWorkload: -workload dataplane rounds run the function
// chain end to end (verdicts verified inside dpchain.Round) and keep the
// source healthy — the dataplane trace must be as clean to the gap
// scan and the detector as the request workload's.
func TestServeDataplaneWorkload(t *testing.T) {
	reg := useRegistry(t)
	rig := newServeRig(t, collector.Config{Detect: &detect.Config{}})
	rig.ship(t, ShipConfig{Workload: "dataplane", Requests: 200, Rounds: 1})

	if h := rig.coll.Health(); !h.OK || h.Status != "healthy" {
		t.Fatalf("dataplane round health = %+v, want OK healthy", h)
	}
	if got := reg.Counter("fluct_detect_changepoints_total").Value(); got != 0 {
		t.Fatalf("clean dataplane round fired %d change events", got)
	}
}

// TestServeDetect: with the detector on and an injected function
// slowdown, change events fire, /verdicts blames the slowed function, and
// /healthz degrades through the "detect" condition while an event is
// unresolved. A clean detector-on round stays healthy.
func TestServeDetect(t *testing.T) {
	reg := useRegistry(t)
	rig := newServeRig(t, collector.Config{Detect: &detect.Config{}})
	rig.ship(t, ShipConfig{Requests: 300, Rounds: 1, Faults: "fnslow=table_lookup,fnfactor=3,fnafter=0.5"})

	if got := reg.Counter("fluct_detect_changepoints_total").Value(); got == 0 {
		t.Fatal("injected 3x slowdown fired no change events")
	}
	var vv collector.VerdictsView
	scrapeJSON(t, rig.base, "/verdicts", &vv)
	if vv.Active == 0 {
		t.Fatal("round ends at the slowed level, want an unresolved event")
	}
	var strongest detect.Verdict
	for _, v := range vv.Verdicts {
		if v.Rank == 0 {
			strongest = v // the newest event's strongest cause
		}
	}
	if strongest.Function != "table_lookup" || strongest.Source != "serve" {
		t.Errorf("strongest verdict %+v, want serve's table_lookup blamed", strongest)
	}
	var h obs.Health
	if code := scrapeJSON(t, rig.base, "/healthz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz with active events: status %d, %+v", code, h)
	}
	if !strings.Contains(h.Detail, "detect:") || !strings.Contains(h.Detail, "unresolved fluctuation") {
		t.Fatalf("health detail %q missing the detect condition", h.Detail)
	}
	if h.Fields["active_verdicts"] != float64(vv.Active) || h.Fields["degraded_sources"] != 0 {
		t.Fatalf("health fields %v, want active_verdicts=%d and a clean transport", h.Fields, vv.Active)
	}

	clean := newServeRig(t, collector.Config{Detect: &detect.Config{}})
	clean.ship(t, ShipConfig{Requests: 300, Rounds: 1})
	if h := clean.coll.Health(); !h.OK || h.Fields["verdicts"] != 0 {
		t.Fatalf("clean detect round health = %+v, want OK with no verdicts", h)
	}
}

// monitorReference is the integrate → detect → health loop `fluct -serve`
// used to run in-process, before it became a one-source fluctd: each
// round's set, perturbed by spec with the seed advanced per round, is
// gap-scanned and stream-integrated into one detector. It returns every
// verdict that detector emitted and whether the last round left the
// monitor healthy.
func monitorReference(t *testing.T, spec string, workload string, requests, rounds int) ([]detect.Verdict, bool) {
	t.Helper()
	plan, err := faults.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts []detect.Verdict
	var det *detect.Detector
	ok := true
	for r := 0; r < rounds; r++ {
		set, err := roundSet(workload, requests)
		if err != nil {
			t.Fatal(err)
		}
		if spec != "" {
			p := plan
			p.Seed += uint64(r)
			set, _ = faults.Perturb(set, p)
		}
		gaps := set.GapSummary(pmu.UopsRetired)
		if det == nil {
			det, err = detect.New(detect.Config{
				Source: "serve", FreqHz: set.FreqHz, Registry: obs.NewRegistry(),
				OnVerdict: func(v detect.Verdict) { verdicts = append(verdicts, v) },
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		integ, err := core.NewStreamIntegrator(set.Syms, core.Options{}, func(*core.Item) {})
		if err != nil {
			t.Fatal(err)
		}
		integ.OnItem = func(it *core.Item) {
			det.Update(it)
			integ.Recycle(it)
		}
		feed := set.Feed()
		for i, ok := feed.Next(); ok; i, ok = feed.Next() {
			if i < 0 {
				integ.Marker(set.Markers[^i])
			} else {
				integ.Sample(set.Samples[i])
			}
		}
		integ.Close()
		ok = !gaps.Degraded() && det.Stats().Active == 0
	}
	return verdicts, ok
}

// TestServeMatchesMonitor pins the one-source fluctd against the loop it
// replaced: the same verdicts, in the same order, for an injected
// slowdown over three rounds, and the same healthy/degraded outcome for a
// slowdown, a lossy trace, and clean request and dataplane rounds.
func TestServeMatchesMonitor(t *testing.T) {
	for _, tc := range []struct {
		name, spec, workload string
		requests, rounds     int
		ok                   bool
		verdicts             int // -1: only health is compared
	}{
		{"fnslow", "fnslow=table_lookup,fnfactor=3,fnafter=0.5", "request", 300, 3, false, 7},
		{"lossy", "seed=7,loss=0.3,burst=64,mdrop=0.05", "request", 300, 1, false, -1},
		{"clean", "", "request", 300, 1, true, -1},
		{"dataplane", "", "dataplane", 200, 1, true, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			useRegistry(t)
			want, wantOK := monitorReference(t, tc.spec, tc.workload, tc.requests, tc.rounds)
			if wantOK != tc.ok {
				t.Fatalf("reference health OK = %v, want %v", wantOK, tc.ok)
			}

			var mu sync.Mutex
			var got []detect.Verdict
			rig := newServeRig(t, collector.Config{
				Detect: &detect.Config{},
				OnVerdict: func(v detect.Verdict) {
					mu.Lock()
					got = append(got, v)
					mu.Unlock()
				},
			})
			rig.ship(t, ShipConfig{Workload: tc.workload, Requests: tc.requests, Rounds: tc.rounds, Faults: tc.spec})

			if h := rig.coll.Health(); h.OK != wantOK {
				t.Errorf("health OK = %v (%s), reference says %v", h.OK, h.Detail, wantOK)
			}
			if tc.verdicts < 0 {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if len(want) != tc.verdicts {
				t.Fatalf("reference emitted %d verdicts, want %d", len(want), tc.verdicts)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("verdicts differ from the reference:\n got: %v\nwant: %v", got, want)
			}
		})
	}
}
