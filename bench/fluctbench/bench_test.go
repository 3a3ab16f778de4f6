package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestDeclarationMatchesBenchmarkJSON: BENCHMARK.json is `fluctbench
// -spec`, byte for byte, and stays inside the benchmark contract's limits.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(declaration()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buf.Bytes()) {
		t.Fatal("BENCHMARK.json differs from the declaration in spec.go; regenerate it with `bash bench/run.sh -spec > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	useName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	d := declaration()
	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range d.Workloads {
		useName(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	hasSetup := false
	for _, m := range d.EndToEnd {
		useName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is outside the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range d.PerLayer {
		useName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v is outside the contract", m)
		}
	}
}

// tinySpecs are the fleet workloads at a size that runs in a fraction of
// a second: same load shapes, same code paths, far fewer records.
func tinySpecs() []fleetSpec {
	specs := append([]fleetSpec{}, fleetSpecs...)
	for i := range specs {
		s := &specs[i]
		s.pool = 4
		switch s.name {
		case "fleet_bulk":
			s.shape.items = 200
		case "fleet_smallsets":
			s.idle = 6
		case "fleet_paced":
			s.shape.items = 60
		case "fleet_catchup":
			s.shape.items = 60
			s.backlog = 8
		}
	}
	return specs
}

const (
	tinySeconds = 0.25
	tinyPackets = 400
)

func init() { probeBudget = time.Millisecond }

func tinyRun(t *testing.T, workload string, seed uint64, traced bool) *runOutput {
	t.Helper()
	o := runOptions{workload: workload, seed: seed, seconds: tinySeconds, traced: traced,
		stateDir: t.TempDir(), outDir: t.TempDir()}
	var out *runOutput
	var err error
	if workload == localWorkload {
		out, err = runLocal(o, tinyPackets)
	} else {
		for _, spec := range tinySpecs() {
			if spec.name == workload {
				out, err = runFleet(spec, o)
			}
		}
	}
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	if out == nil {
		t.Fatalf("no workload %q", workload)
	}
	if out.failed != 0 || len(out.problems) != 0 || out.attempted == 0 {
		t.Fatalf("%s traced=%v: attempted %d, failed %d, output check: %v",
			workload, traced, out.attempted, out.failed, out.problems)
	}
	return out
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at tiny size, both
// ways, and holds the emitted metric names equal to the declared ones in
// both directions, every value finite.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for _, wd := range workloadDecls {
		t.Run(wd.Name, func(t *testing.T) {
			e2e := tinyRun(t, wd.Name, 3, false).e2e
			for _, d := range e2eDecls {
				v, ok := e2e[d.Name]
				if !ok {
					t.Errorf("declared end-to-end metric %s not emitted", d.Name)
				} else if math.IsNaN(v.Median) || math.IsInf(v.Median, 0) || v.Median <= 0 {
					t.Errorf("end-to-end metric %s = %v: must be finite and never 0", d.Name, v.Median)
				}
				delete(e2e, d.Name)
			}
			for n := range e2e {
				t.Errorf("emitted end-to-end metric %s is not declared", n)
			}

			layers := tinyRun(t, wd.Name, 3, true).layers
			for _, d := range layerDecls {
				v, ok := layers[d.Name]
				if !ok {
					t.Errorf("declared per-layer metric %s not emitted", d.Name)
				} else if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v", d.Name, v)
				}
				delete(layers, d.Name)
			}
			for n := range layers {
				t.Errorf("emitted per-layer metric %s is not declared", n)
			}
		})
	}
}

// TestSeedDeterminesInputs: the same seed gives the same inputs and the
// same exact counts; another seed gives other inputs. fleet_paced is the
// workload whose schedule fixes how many sets are shipped.
func TestSeedDeterminesInputs(t *testing.T) {
	const w = "fleet_paced"
	a, b, c := tinyRun(t, w, 11, true), tinyRun(t, w, 11, true), tinyRun(t, w, 12, true)
	if a.inputHash != b.inputHash {
		t.Errorf("same seed, input hashes %016x and %016x", a.inputHash, b.inputHash)
	}
	if a.inputHash == c.inputHash {
		t.Errorf("seeds 11 and 12 gave the same input hash %016x", a.inputHash)
	}
	for _, name := range exactLayers {
		if a.layers[name] != b.layers[name] {
			t.Errorf("same seed, %s = %v and %v", name, a.layers[name], b.layers[name])
		}
	}
	if a.layers["detect.top1_correct"] != 1 || a.layers["detect.false_alarms"] != 0 {
		t.Errorf("seeded step: top1_correct=%v false_alarms=%v, want 1 and 0",
			a.layers["detect.top1_correct"], a.layers["detect.false_alarms"])
	}
	x, y := tinyRun(t, w, 11, false).e2e["bytes_per_item"].Median, tinyRun(t, w, 11, false).e2e["bytes_per_item"].Median
	if x != y {
		t.Errorf("same seed, bytes_per_item = %v and %v", x, y)
	}
}

// TestCompareFlagsRegressions: compare passes an A/A pair, names each
// metric × workload that got worse by more than its bound in the direction
// that is worse for that metric, reads an A/A pair the same way in both
// argument orders, and does not pass failures, partial files or zeros.
func TestCompareFlagsRegressions(t *testing.T) {
	file := func(setsPerS, ackMs float64) *benchFile {
		b := &benchFile{Workloads: map[string]*workloadResult{}}
		for _, wd := range workloadDecls {
			r := &workloadResult{Untraced: &runMeta{Attempted: 100, Correct: true}, EndToEnd: map[string]e2eValue{}}
			for _, d := range e2eDecls {
				r.EndToEnd[d.Name] = e2eValue{dist: dist{Median: 1}}
			}
			b.Workloads[wd.Name] = r
		}
		e2e := b.Workloads["fleet_bulk"].EndToEnd
		e2e["sets_per_s"], e2e["ack_p50_ms"] = e2eValue{dist: dist{Median: setsPerS}}, e2eValue{dist: dist{Median: ackMs}}
		return b
	}
	check := func(name string, a, b *benchFile, same bool, want int) {
		t.Helper()
		var report bytes.Buffer
		if bad := compare(&report, []*benchFile{a}, []*benchFile{b}, same); bad != want {
			t.Errorf("%s: %d findings, want %d:\n%s", name, bad, want, report.String())
		}
	}
	check("A/A pair within bounds", file(100, 10), file(99, 10.2), false, 0)
	check("A/A pair within bounds, -same", file(100, 10), file(99, 10.2), true, 0)
	check("an improvement", file(100, 10), file(140, 7), false, 0)
	check("throughput -30% and latency +30%", file(100, 10), file(70, 13), false, 2)
	check("-same, slower file second", file(100, 10), file(70, 14), true, 2)
	check("-same, slower file first", file(70, 14), file(100, 10), true, 2)

	failed := file(100, 10)
	failed.Workloads["fleet_paced"].Untraced = &runMeta{Attempted: 100, Failed: 3}
	check("more failures, run not correct", file(100, 10), failed, false, 2)
	partial := file(100, 10)
	delete(partial.Workloads, "local_dataplane")
	check("a workload missing from the second file", file(100, 10), partial, false, 1)
	check("a workload missing from the first file", partial, file(100, 10), false, 1)
	noMetric := file(100, 10)
	delete(noMetric.Workloads["fleet_bulk"].EndToEnd, "peak_rss_mb")
	check("a metric missing", file(100, 10), noMetric, false, 1)
	check("a zero median", file(100, 10), file(0, 10), false, 1)
	check("no overlap at all", &benchFile{}, &benchFile{}, false, len(workloadDecls))

	// A side of three files is read at its median: one run inside a slow
	// spell does not decide, two do.
	three := func(setsPerS ...float64) (side []*benchFile) {
		for _, v := range setsPerS {
			side = append(side, file(v, 10))
		}
		return side
	}
	var report bytes.Buffer
	if bad := compare(&report, three(100, 101, 99), three(100, 60, 102), true); bad != 0 {
		t.Errorf("one slow run of three: %d findings, want 0:\n%s", bad, report.String())
	}
	if bad := compare(&report, three(100, 101, 99), three(61, 60, 102), true); bad != 1 {
		t.Errorf("two slow runs of three: %d findings, want 1:\n%s", bad, report.String())
	}
}
