package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/trace"
	"repro/internal/workloads/dpchain"
)

// local_dataplane is the single-host path of the paper, no fleet at all:
// each round runs the compiled ACL → flow cache → LPM chain as a traced
// workload on the simulator, dumps the trace to a file, reads it back,
// integrates it offline and reports per-function fluctuations.
const (
	localWorkers = 2
	localPackets = 10000 // per worker
)

// localRound is one round's stage boundaries and sizes.
type localRound struct {
	start, ran, encoded, decoded, integrated, reported time.Duration
	cpu                                                time.Duration // process CPU at reported
	rssMB                                              float64       // resident set at reported
	stolen                                             float64       // share of the CPU the host withheld during the round
	packets, items                                     int
	fileBytes                                          int64
	flowHits, flowLookups                              uint64
	samples                                            int
	failed                                             bool
}

type localEnv struct {
	dir       string
	seed      uint64
	packets   int // per worker
	t0        time.Time
	rounds    int // rounds run so far, warm-up included
	inputHash uint64
	compileMs float64
	lastSet   *trace.Set // newest generated trace, retained for the probes
	problems  []string
}

func (e *localEnv) now() time.Duration { return time.Since(e.t0) }

func (e *localEnv) config() dataplane.PipelineConfig {
	cfg := dpchain.BaseConfig(localWorkers, e.packets)
	// Every round draws fresh traffic: replaying one packet stream would
	// measure the pipeline with every table and cache pre-heated by the
	// identical previous round.
	cfg.Gen.Seed = e.seed<<20 + uint64(e.rounds) + 1
	return cfg
}

// setupLocal compiles the matcher once (the set-up cost a rule push pays)
// and runs one full warm-up round.
func setupLocal(seed uint64, dir string, packets int) (*localEnv, error) {
	e := &localEnv{dir: dir, seed: seed, packets: packets, t0: time.Now()}
	cfg := e.config()
	t := time.Now()
	if _, err := dataplane.Compile(cfg.Rules, cfg.Build); err != nil {
		return nil, err
	}
	e.compileMs = ms(time.Since(t))
	r, err := e.round(true)
	if err != nil {
		return nil, err
	}
	if r.failed {
		return nil, fmt.Errorf("warm-up round failed its output check: %v", e.problems)
	}
	e.inputHash = hashSets([]*trace.Set{e.lastSet})
	return e, nil
}

// round runs one generate → dump → load → integrate → report cycle. With
// check set it also verifies that integrating the round-tripped file
// equals integrating the in-memory set.
func (e *localEnv) round(check bool) (localRound, error) {
	var r localRound
	cfg := e.config()
	e.rounds++
	path := filepath.Join(e.dir, "round.trace")

	r.start = e.now()
	steal0 := hostSteal()
	res, err := dataplane.Run(cfg)
	if err != nil {
		return r, err
	}
	r.ran = e.now()

	f, err := os.Create(path)
	if err != nil {
		return r, err
	}
	if err := res.Set.Encode(f); err != nil {
		f.Close()
		return r, err
	}
	if err := f.Close(); err != nil {
		return r, err
	}
	r.encoded = e.now()

	in, err := os.Open(path)
	if err != nil {
		return r, err
	}
	set, err := trace.Decode(in)
	in.Close()
	if err != nil {
		return r, err
	}
	r.decoded = e.now()

	a, err := core.Integrate(set, core.Options{})
	if err != nil {
		return r, err
	}
	r.integrated = e.now()

	rows := core.FunctionReport(a)
	groups := core.DetectFluctuations(a, func(it *core.Item) string { return fmt.Sprint(it.Core) }, 3, 0.25)
	r.reported = e.now()
	r.cpu = cpuTime()
	r.rssMB = rssMB()
	r.stolen = float64(hostSteal()-steal0) / float64(r.reported-r.start) / float64(runtime.NumCPU())
	runtime.KeepAlive(groups)

	if st, err := os.Stat(path); err == nil {
		r.fileBytes = st.Size()
	}
	r.packets = cfg.Workers * cfg.Packets
	r.items = len(a.Items)
	r.samples = len(set.Samples)
	r.flowHits = res.CacheStats.Hits
	r.flowLookups = res.CacheStats.Hits + res.CacheStats.Misses
	e.lastSet = res.Set

	fail := func(format string, args ...any) {
		r.failed = true
		e.problems = append(e.problems, fmt.Sprintf("round %d: ", e.rounds)+fmt.Sprintf(format, args...))
	}
	if len(res.Mismatches) > 0 {
		fail("%d packets classified differently from the oracle", len(res.Mismatches))
	}
	if r.items != r.packets {
		fail("integrated %d items from %d packets", r.items, r.packets)
	}
	if len(rows) == 0 {
		fail("function report is empty")
	}
	if check {
		direct, err := core.Integrate(res.Set, core.Options{})
		if err != nil {
			return r, err
		}
		if !bytes.Equal(renderItems(a.FreqHz, a.Items), renderItems(direct.FreqHz, direct.Items)) {
			fail("Integrate(Decode(Encode(set))) differs from Integrate(set)")
		}
	}
	return r, nil
}

// measure repeats rounds for about seconds; the last round carries the
// round-trip equality check.
func (e *localEnv) measure(seconds float64) ([]localRound, error) {
	end := e.now() + time.Duration(seconds*float64(time.Second))
	var rounds []localRound
	for e.now() < end {
		r, err := e.round(false)
		if err != nil {
			return rounds, err
		}
		rounds = append(rounds, r)
	}
	r, err := e.round(true)
	if err != nil {
		return rounds, err
	}
	return append(rounds, r), nil
}

// localE2E reports the same end-to-end names as the fleet workloads with
// their single-host meaning: a set is a round's trace, it is handed off
// when its file is written (handoff: the dump alone; ack: since the round
// began, generation included) and visible when its report is done. Each
// round is a slice.
func localE2E(rounds []localRound, cpu0 time.Duration, allocDelta uint64) map[string]dist {
	items := 0
	var fileBytes int64
	var rssMax float64
	cpuMs := make([]float64, len(rounds)) // a round's CPU runs from the previous round's end
	prevCPU := cpu0
	for i, r := range rounds {
		rssMax = max(rssMax, r.rssMB)
		cpuMs[i] = ms(r.cpu - prevCPU)
		prevCPU = r.cpu
		items += r.items
		fileBytes += r.fileBytes
	}
	var rate, handoff, ack, vis, cpu []float64
	kept := undisturbed(indices(len(rounds)), func(i int) float64 { return rounds[i].stolen })
	for _, i := range kept {
		r := rounds[i]
		rate = append(rate, 1/(r.reported-r.start).Seconds())
		handoff = append(handoff, ms(r.encoded-r.ran))
		ack = append(ack, ms(r.encoded-r.start))
		vis = append(vis, ms(r.reported-r.start))
		cpu = append(cpu, cpuMs[i])
	}
	n, dropped := len(rounds), len(rounds)-len(kept)
	perItem := func(total float64) dist { return single(total/float64(items), items) }
	return map[string]dist{
		"sets_per_s":           summarize(rate, n, dropped),
		"handoff_p50_ms":       summarize(handoff, n, dropped),
		"ack_p50_ms":           summarize(ack, n, dropped),
		"visible_p50_ms":       summarize(vis, n, dropped),
		"cpu_ms_per_set":       summarize(cpu, n, dropped),
		"bytes_per_item":       perItem(float64(fileBytes)),
		"alloc_bytes_per_item": perItem(float64(allocDelta)),
		"peak_rss_mb":          single(rssMax, n),
	}
}

// indices returns 0..n-1.
func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
