// Command fluctbench is the repository's end-to-end benchmark: it builds
// the real two-tier fleet topology in one process, drives it with seeded
// inputs, and reports what a user of the system would see (end-to-end
// metrics, untraced run) or where the time went (per-layer metrics, traced
// run). See bench/README.md.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

var fleetSpecs = []fleetSpec{
	{name: "fleet_bulk", mode: closedLoop, shape: setShape{items: 2000, reset: 1000, scale: 1}, pool: 4, stretch: 2},
	{name: "fleet_smallsets", mode: closedLoop, shape: setShape{items: 16, reset: 1000, scale: 1}, pool: 32, idle: 128, stretch: 2},
	{name: "fleet_paced", mode: pacedLoop, shape: setShape{items: 300, reset: 4000, scale: 2}, pool: 16, rate: 40, stretch: 2},
	{name: "fleet_catchup", mode: catchupLoop, shape: setShape{items: 300, reset: 4000, scale: 2}, pool: 16, backlog: 192, stretch: 3},
}

const localWorkload = "local_dataplane"

// An untraced run sets the workload up setupsBefore times before the
// measured window and setupsAfter times after it; setup_s is the median of
// them all, so neither one slow start nor a slow spell of the box that is
// shorter than the run can move it.
const (
	setupsBefore = 3
	setupsAfter  = 2
)

// runOptions is one invocation's request.
type runOptions struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	stateDir string // root for spools, checkpoints and trace files; removed afterwards
	outDir   string // results and trace_event files
}

// runOutput is what a run measured: the end-to-end block (reported by an
// untraced run) and, on a traced run, the per-layer block.
type runOutput struct {
	e2e    map[string]dist
	layers map[string]float64
	// budget is a traced fleet run's per-set CPU budget, milliseconds by
	// row; cpuMsPerSet is what a set was measured to cost in that run.
	budget      map[string]float64
	cpuMsPerSet float64
	attempted   int
	failed      int
	problems    []string
	inputHash   uint64
}

func main() {
	var o runOptions
	var traceFlag int
	var all, spec, cmp, same bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (see -spec for the list)")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured window")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
	flag.StringVar(&o.stateDir, "state", "", "directory for spools and checkpoints (default: tmpfs under /dev/shm, else under -out)")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for result and trace files")
	flag.BoolVar(&all, "all", false, "run every workload, untraced then traced, each in its own process")
	flag.BoolVar(&spec, "spec", false, "print the benchmark declaration (BENCHMARK.json) and exit")
	flag.BoolVar(&cmp, "compare", false, "compare two sides, each one result file or several joined by commas: -compare [-same] a.json b1.json,b2.json")
	flag.BoolVar(&same, "same", false, "with -compare: both files are runs of the same code, so a difference in either direction counts")
	flag.Parse()
	o.traced = traceFlag != 0

	var err error
	switch {
	case spec:
		err = writeSpec(os.Stdout)
	case cmp:
		err = runCompare(flag.Args(), same)
	case all:
		err = runAll(o)
	default:
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fluctbench:", err)
		os.Exit(1)
	}
}

func runCompare(args []string, same bool) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two sides, each one result file or several joined by commas")
	}
	var sides [2][]*benchFile
	for i, arg := range args {
		for _, path := range strings.Split(arg, ",") {
			f, err := loadBench(path)
			if err != nil {
				return err
			}
			sides[i] = append(sides[i], f)
		}
	}
	if bad := compare(os.Stdout, sides[0], sides[1], same); bad > 0 {
		return fmt.Errorf("%d findings", bad)
	}
	return nil
}

// runAll runs each workload untraced then traced. Each run is a process
// of its own so that one workload's heap and resident-set high-water mark
// do not leak into the next one's numbers.
func runAll(o runOptions) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, wd := range workloadDecls {
		for _, traced := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", wd.Name, "-seed", strconv.FormatUint(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", traced,
				"-state", o.stateDir, "-out", o.outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %s): %w", wd.Name, traced, err)
			}
		}
	}
	return nil
}

// stateRoot makes the directory this run's durable state lives in. Spools
// and checkpoints fsync on every set; on a disk that is milliseconds of
// device time with heavy tails per set and the benchmark would report the
// disk (measured here: ±30% run to run on the same code). A tmpfs makes
// fsync a no-op so the numbers are the program's. Fallback: under -out.
func stateRoot(o runOptions) (string, error) {
	bases := []string{o.stateDir}
	if o.stateDir == "" {
		bases = []string{o.outDir}
		if fsName("/dev/shm") == "tmpfs" {
			bases = []string{"/dev/shm", o.outDir}
		}
	}
	var err error
	for _, base := range bases {
		var dir string
		if dir, err = os.MkdirTemp(base, "fluctbench-"); err == nil {
			return dir, nil
		}
	}
	return "", err
}

func runOne(o runOptions) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	state, err := stateRoot(o)
	if err != nil {
		return err
	}
	defer os.RemoveAll(state)
	// A run stopped by its caller's time limit still removes its state.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(state)
		os.Exit(1)
	}()
	o.stateDir = state
	stateFS := fsName(state)

	var out *runOutput
	if o.workload == localWorkload {
		out, err = runLocal(o, localPackets)
	} else {
		found := false
		for _, spec := range fleetSpecs {
			if spec.name == o.workload {
				found = true
				out, err = runFleet(spec, o)
			}
		}
		if !found {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	if err != nil {
		return err
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "output check:", p)
	}
	out.failed = min(out.failed+len(out.problems), out.attempted)
	correct := out.failed == 0

	meta := &runMeta{Seed: o.seed, Seconds: o.seconds, InputHash: fmt.Sprintf("%016x", out.inputHash),
		Attempted: out.attempted, Failed: out.failed, Correct: correct}
	fmt.Printf("workload=%s seed=%d seconds=%g traced=%v rev=%s gomaxprocs=%d nproc=%d transport=tcp-loopback state_fs=%s input_hash=%s\n",
		o.workload, o.seed, o.seconds, o.traced, gitRev(), runtime.GOMAXPROCS(0), runtime.NumCPU(), stateFS, meta.InputHash)

	// The last line: every declared metric of this kind of run, by name.
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	emit := map[string]metric{}
	bench := benchPath(o.outDir)
	if o.traced {
		layers := map[string]layerValue{}
		for _, d := range layerDecls {
			v, ok := out.layers[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("per-layer metric %s was not measured (%v)", d.Name, v)
			}
			fmt.Printf("%-32s %16.4f %s\n", d.Name, v, d.Unit)
			emit[d.Name] = metric{v, d.Unit}
			layers[d.Name] = layerValue{v, d.Unit}
		}
		if len(out.layers) != len(layerDecls) {
			return fmt.Errorf("run measured %d per-layer metrics, %d are declared", len(out.layers), len(layerDecls))
		}
		if out.budget != nil {
			rows := make([]string, 0, len(out.budget))
			for row := range out.budget {
				rows = append(rows, row)
			}
			slices.SortFunc(rows, func(a, b string) int { return cmp.Compare(out.budget[b], out.budget[a]) })
			fmt.Printf("budget: a set costs %.3f CPU-ms, of which\n", out.cpuMsPerSet)
			for _, row := range rows {
				fmt.Printf("  %-16s %9.3f ms %5.1f%%\n", row, out.budget[row], 100*out.budget[row]/out.cpuMsPerSet)
			}
			fmt.Printf("  %-16s %9.3f ms %5.1f%%\n", "residual", layers["budget.residual_ms_per_set"].Value,
				100*(1-layers["budget.attributed_share"].Value))
			switch oh, sp := layers["loadgen.trace_overhead_share"].Value, layers["loadgen.trace_overhead_spread"].Value; {
			case sp > 0.05:
				fmt.Printf("trace overhead %+.1f%% is unresolved: the pairs' quartiles are %.1f%% apart\n", 100*oh, 100*sp)
			case math.Abs(oh) < sp:
				fmt.Printf("trace overhead %+.1f%% is not distinguishable from none: the pairs' quartiles are %.1f%% apart\n", 100*oh, 100*sp)
			}
		}
		err = updateBench(bench, stateFS, func(b *benchFile) {
			r := b.workload(o.workload)
			r.Traced, r.PerLayer, r.BudgetMs = meta, layers, out.budget
		})
	} else {
		e2e := map[string]e2eValue{}
		for _, d := range e2eDecls {
			v, ok := out.e2e[d.Name]
			if !ok || math.IsNaN(v.Median) || math.IsInf(v.Median, 0) {
				return fmt.Errorf("end-to-end metric %s was not measured", d.Name)
			}
			fmt.Printf("%-32s %16.4f %-7s q1=%.4f q3=%.4f slices=%d dropped=%d samples=%d\n",
				d.Name, v.Median, d.Unit, v.Q1, v.Q3, v.Slices, v.Dropped, v.Samples)
			emit[d.Name] = metric{v.Median, d.Unit}
			e2e[d.Name] = e2eValue{v, d.Unit}
		}
		if len(out.e2e) != len(e2eDecls) {
			return fmt.Errorf("run measured %d end-to-end metrics, %d are declared", len(out.e2e), len(e2eDecls))
		}
		err = updateBench(bench, stateFS, func(b *benchFile) {
			r := b.workload(o.workload)
			r.Untraced, r.EndToEnd = meta, e2e
		})
	}
	if err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, emit})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	if !correct {
		return fmt.Errorf("%d of %d failed", out.failed, out.attempted)
	}
	return nil
}

func (b *benchFile) workload(name string) *workloadResult {
	if b.Workloads[name] == nil {
		b.Workloads[name] = &workloadResult{}
	}
	return b.Workloads[name]
}

// zeroLayers starts a traced run's layer table with every declared row at
// zero: a layer the workload never enters did no work.
func zeroLayers() map[string]float64 {
	m := map[string]float64{}
	for _, d := range layerDecls {
		m[d.Name] = 0
	}
	return m
}

// timedSetup is one set-up's duration and the share of the CPU the host
// withheld while it ran.
type timedSetup struct{ seconds, stolen float64 }

// timeSetup runs one set-up and times it.
func timeSetup(setup func() error) (timedSetup, error) {
	start, steal0 := time.Now(), hostSteal()
	err := setup()
	d := time.Since(start)
	return timedSetup{d.Seconds(), float64(hostSteal()-steal0) / float64(d) / float64(runtime.NumCPU())}, err
}

// setupSeconds is setup_s: the median over the undisturbed set-ups.
func setupSeconds(setups []timedSetup) dist {
	kept := undisturbed(setups, func(s timedSetup) float64 { return s.stolen })
	var seconds []float64
	for _, s := range kept {
		seconds = append(seconds, s.seconds)
	}
	return summarize(seconds, len(setups), len(setups)-len(kept))
}

// setupTimed sets the workload up repeats times, each in a fresh state
// directory, and returns the last topology with every set-up's timing.
func setupTimed(spec fleetSpec, o runOptions, name string, repeats int) (*fleetEnv, []timedSetup, error) {
	var env *fleetEnv
	var setupS []timedSetup
	for i := 0; i < repeats; i++ {
		if env != nil {
			env.teardown()
		}
		dir := filepath.Join(o.stateDir, fmt.Sprintf("%s-%d", name, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		timed, err := timeSetup(func() (err error) {
			env, err = setupFleet(spec, o.seed, dir, o.traced && name == "traced")
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, timed)
	}
	return env, setupS, nil
}

// count adds a stretch's sets to the run's attempted and failed totals.
func (out *runOutput) count(res *fleetOutcome) {
	out.attempted += len(res.recs)
	for _, r := range res.recs {
		if !r.done {
			out.failed++
		}
	}
}

func runFleet(spec fleetSpec, o runOptions) (*runOutput, error) {
	if o.traced {
		return runFleetTraced(spec, o)
	}
	env, setupS, err := setupTimed(spec, o, "setup", setupsBefore)
	if err != nil {
		return nil, err
	}
	defer func() { env.teardown() }() // whichever topology is up when the run ends

	debug.FreeOSMemory() // the window's resident set starts from what set-up left alive
	before := env.f.snap()
	res, err := env.measure(o.seconds, minRounds)
	if err != nil {
		return nil, err
	}
	after := env.f.snap()
	env.f.drain()

	out := &runOutput{inputHash: env.inputHash}
	out.count(res)
	out.problems = env.verifyFleet(res)
	out.e2e = fleetE2E(spec.mode, res, before, after)
	out.e2e["peak_rss_mb"] = single(res.cpu.rssMax, len(res.cpu.at))

	env.teardown()
	last, again, err := setupTimed(spec, o, "again", setupsAfter)
	if err != nil {
		return nil, err
	}
	env = last
	setupS = append(setupS, again...)
	out.e2e["setup_s"] = setupSeconds(setupS)
	return out, nil
}

// minPairs is how many traced/untraced pairs a traced run measures at
// least, however short --seconds is.
const minPairs = 2

// localProbeRounds is how many rounds of its two probes a traced
// local_dataplane run makes after the window.
const localProbeRounds = 5

// runFleetTraced is the per-layer run. It brings up the topology twice in
// this process — once with the server-side taps and span records on, once
// without — and alternates short stretches of the same load between the
// two, so that what tracing costs is read from adjacent pairs under the
// same weather instead of from two runs minutes apart. The layer table
// comes from the traced topology's stretches and from the probes, one
// round of them after each pair.
func runFleetTraced(spec fleetSpec, o runOptions) (*runOutput, error) {
	traced, _, err := setupTimed(spec, o, "traced", 1)
	if err != nil {
		return nil, err
	}
	defer traced.teardown()
	plain, _, err := setupTimed(spec, o, "plain", 1)
	if err != nil {
		return nil, err
	}
	defer plain.teardown()

	// The number of pairs is fixed by --seconds, not by the clock, so that
	// a fixed-schedule workload ships the same sets on every traced run.
	pairs := max(int(o.seconds/(2*spec.stretch)), minPairs)
	stretch := min(spec.stretch, o.seconds/(2*minPairs))
	if spec.mode == catchupLoop {
		stretch = 0 // a stretch is one round, however long it takes
	}
	out := &runOutput{inputHash: traced.inputHash}
	res, resPlain := &fleetOutcome{}, &fleetOutcome{}
	type pair struct{ cpuPerSet, overhead, stolen float64 }
	var measured []pair
	var stolen []float64
	var probed, budgets []map[string]float64 // one table per round of the probes
	before := traced.f.snap()
	for k := 0; k < pairs; k++ {
		order := []*fleetEnv{traced, plain}
		if k%2 == 1 {
			order = []*fleetEnv{plain, traced} // alternate which side goes first
		}
		cost := map[*fleetEnv]float64{}
		var disturbed float64 // the larger of the two sides' stolen shares
		for _, env := range order {
			runtime.GC() // both sides of a pair start from a collected heap
			r, err := env.measure(stretch, 1)
			if err != nil {
				return nil, err
			}
			out.count(r)
			cost[env] = r.cpuMsPerSet()
			disturbed = max(disturbed, r.cpu.stolen(r.w0, r.w1))
			if env == traced {
				stolen = append(stolen, r.cpu.stolen(r.w0, r.w1))
				res.merge(r)
			} else {
				resPlain.merge(r)
			}
		}
		if cost[traced] > 0 && cost[plain] > 0 {
			measured = append(measured, pair{cost[traced], cost[traced]/cost[plain] - 1, disturbed})
		}
		// One round of the probes, while both topologies are idle. They pay
		// for their own garbage, not the stretches'.
		runtime.GC()
		pm := map[string]float64{}
		pb, err := setProbes(traced.pools[0][0], o.stateDir, pm)
		if err != nil {
			return nil, err
		}
		if err := traced.fleetProbes(pm, pb); err != nil {
			return nil, err
		}
		probed, budgets = append(probed, pm), append(budgets, pb)
	}
	after := traced.f.snap()
	traced.f.drain()
	plain.f.drain()
	out.problems = append(traced.verifyFleet(res), plain.verifyFleet(resPlain)...)

	m := zeroLayers()
	traced.fleetLayers(res, before, after, m)
	var cpuPerSet, overhead []float64
	for _, p := range undisturbed(measured, func(p pair) float64 { return p.stolen }) {
		cpuPerSet, overhead = append(cpuPerSet, p.cpuPerSet), append(overhead, p.overhead)
	}
	m["loadgen.trace_overhead_share"] = stats.Median(overhead)
	m["loadgen.trace_overhead_spread"] = stats.Percentile(overhead, 75) - stats.Percentile(overhead, 25)
	m["loadgen.host_steal_share"] = stats.Median(stolen)
	for row, v := range medianRounds(probed) {
		m[row] = v
	}
	budget := medianRounds(budgets)
	budget["shipset"] = m["ship.shipset_us"] / 1000
	out.cpuMsPerSet = stats.Median(cpuPerSet)
	fillBudget(m, budget, out.cpuMsPerSet)
	out.layers, out.budget = m, budget
	return out, traced.fleetSpans(res).write(filepath.Join(o.outDir, "trace-"+spec.name+".json"))
}

// fillBudget closes the per-set budget: the rows' sum as a share of the
// CPU a set was measured to cost, and the remainder — syscalls, locks,
// scheduling, GC, and everything no row covers — which is itself a finding.
func fillBudget(m, budget map[string]float64, cpuMsPerSet float64) {
	var total float64
	for _, v := range budget {
		total += v
	}
	if cpuMsPerSet > 0 {
		m["budget.attributed_share"] = total / cpuMsPerSet
		m["budget.residual_ms_per_set"] = cpuMsPerSet - total
	}
}

func runLocal(o runOptions, packets int) (*runOutput, error) {
	var setupS []timedSetup
	setups := func(n int) (env *localEnv, err error) {
		for i := 0; i < n && err == nil; i++ {
			var timed timedSetup
			timed, err = timeSetup(func() (err error) {
				env, err = setupLocal(o.seed, o.stateDir, packets)
				return err
			})
			setupS = append(setupS, timed)
		}
		return env, err
	}
	before := setupsBefore
	if o.traced {
		before = 1 // a traced run does not report setup_s
	}
	env, err := setups(before)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory() // the window's resident set starts from what set-up left alive
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	rounds, err := env.measure(o.seconds)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)

	out := &runOutput{attempted: len(rounds), inputHash: env.inputHash, problems: env.problems}
	if !o.traced {
		out.e2e = localE2E(rounds, cpu0, m1.TotalAlloc-m0.TotalAlloc)
		if _, err := setups(setupsAfter); err != nil {
			return nil, err
		}
		out.e2e["setup_s"] = setupSeconds(setupS)
		return out, nil
	}
	m := zeroLayers()
	localLayers(env, rounds, m)
	m["loadgen.tail_samples"] = float64(len(rounds))
	var probed []map[string]float64
	for round := 0; round < localProbeRounds; round++ {
		pm := map[string]float64{}
		if err := classifyProbe(env.config(), pm); err != nil {
			return nil, err
		}
		symtabProbe(env.lastSet, pm)
		probed = append(probed, pm)
	}
	for row, v := range medianRounds(probed) {
		m[row] = v
	}
	out.layers = m
	return out, localSpans(rounds).write(filepath.Join(o.outDir, "trace-"+localWorkload+".json"))
}
