// Package qapp is the paper's proof-of-concept sample application
// (§IV-B, Fig. 7): a query-answering pipeline in the self-switching
// architecture. Thread 0 receives queries and passes them one by one to
// Thread 1 over a software queue; Thread 1 applies linear transformations to
// n×1000 points per query inside three functions f1/f2/f3, with an
// in-memory cache of already-transformed points. Performance fluctuates by
// cache warmth: the first query needing a given range of points pays the
// full computation, later queries over the same range hit the cache.
//
// The instrumentation is exactly the paper's: two log(d.id, timestamp)
// lines at the top and bottom of Thread 1's while loop — not around f1, f2
// or f3 — and PEBS recovers the per-function breakdown.
//
// Thread 1 runs at 1 cycle per 2 uops. Its cost model, in uops: f1 parses
// for a fixed 20,000; f2 fetches each cached point for 10; f3 computes and
// stores each uncached point for 64. Markers cost trace.DefaultMarkerUops
// and PEBS runs with pmu.PEBSConfig's defaults.
package qapp

import (
	"fmt"

	"repro/internal/pmu"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PointsPerN is the paper's scale factor: a query with number n touches
// n×1000 points.
const PointsPerN = 1000

// Function symbols of Thread 1's loop body.
const (
	FnF1 = "f1_parse_query"
	FnF2 = "f2_fetch_cached"
	FnF3 = "f3_transform_points"
)

// Query is one data-item: its ID and the number n.
type Query struct {
	ID uint64
	N  int
}

// PaperQuerySequence reproduces the Fig. 8 scenario: ten queries where the
// 1st, 2nd, 4th and 8th share n=3 (the 1st pays the cold cache), and the
// 5th, 7th and 9th share n=5 (the 5th pays for the 2000 uncached points).
func PaperQuerySequence() []Query {
	ns := []int{3, 3, 2, 3, 5, 4, 5, 3, 5, 2}
	qs := make([]Query, len(ns))
	for i, n := range ns {
		qs[i] = Query{ID: uint64(i + 1), N: n}
	}
	return qs
}

// Thread 1's rate and cost model; see the package comment.
const (
	rateCycles      = 1
	rateUops        = 2
	f1Uops          = 20_000
	fetchPerPoint   = 10
	computePerPoint = 64
)

// Config parameterizes a run.
type Config struct {
	// Reset is the PEBS reset value; the Fig. 8 run uses 8000. 0 disables
	// sampling.
	Reset uint64
}

// FuncTruth is the simulator's ground truth for one query: the true cycles
// spent in each function, used by tests to validate the tracer's estimates.
type FuncTruth struct {
	F1, F2, F3 uint64
}

// Result bundles a run's outputs.
type Result struct {
	// Set is the hybrid trace.
	Set *trace.Set
	// Truth maps query ID to true per-function cycles.
	Truth map[uint64]FuncTruth
	// Elapsed maps query ID to true total processing cycles on Thread 1.
	Elapsed map[uint64]uint64
	// FreqHz for conversions.
	FreqHz uint64
}

// cacheBase is the synthetic address of the point cache; each point holds
// two float64s (16 bytes).
const cacheBase = 0x2000_0000

// Run executes the sample application over queries and returns the trace
// plus ground truth.
func Run(cfg Config, queries []Query) (*Result, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("qapp: no queries")
	}
	for _, q := range queries {
		if q.N <= 0 {
			return nil, fmt.Errorf("qapp: query %d has non-positive n %d", q.ID, q.N)
		}
		if q.ID == 0 {
			return nil, fmt.Errorf("qapp: query IDs must be non-zero")
		}
	}
	m, err := sim.New(sim.Config{Cores: 2})
	if err != nil {
		return nil, err
	}
	f1 := m.Syms.MustRegister(FnF1, 1024)
	f2 := m.Syms.MustRegister(FnF2, 2048)
	f3 := m.Syms.MustRegister(FnF3, 4096)

	worker := m.Core(1)
	worker.SetRate(rateCycles, rateUops)
	var pebs *pmu.PEBS
	if cfg.Reset > 0 {
		pebs = pmu.NewPEBS(pmu.PEBSConfig{})
		worker.PMU.MustProgram(pmu.UopsRetired, cfg.Reset, pebs)
	}
	log := trace.NewMarkerLog(2, trace.DefaultMarkerUops)
	q := queue.New[Query](queue.Config{Capacity: 64})

	res := &Result{
		Truth:   make(map[uint64]FuncTruth),
		Elapsed: make(map[uint64]uint64),
		FreqHz:  m.FreqHz(),
	}

	// Thread 0: receives queries as inputs and passes them one by one.
	m.MustSpawn(0, func(c *sim.Core) {
		for _, qu := range queries {
			c.Exec(500) // receive/deserialize
			q.Push(c, qu)
		}
		q.Close()
	})

	// Thread 1: the instrumented worker of Fig. 7.
	m.MustSpawn(1, func(c *sim.Core) {
		cached := 0 // highest point index already in the cache
		for {
			qu, ok := q.Pop(c)
			if !ok {
				return
			}
			// log(d.id, timestamp) — top of the while loop.
			log.Mark(c, qu.ID, trace.ItemBegin)
			t0 := c.Now()

			var tr FuncTruth
			points := qu.N * PointsPerN

			c.Call(f1, func() { c.Exec(f1Uops) })
			t1 := c.Now()
			tr.F1 = t1 - t0

			// f2: fetch whatever prefix of the needed points is cached.
			hit := points
			if cached < hit {
				hit = cached
			}
			c.Call(f2, func() {
				c.Exec(uint64(hit) * fetchPerPoint)
				// Touch one cache line per 4 points (16 B points).
				for p := 0; p < hit; p += 4 {
					c.Load(cacheBase + uint64(p)*16)
				}
			})
			t2 := c.Now()
			tr.F2 = t2 - t1

			// f3: compute and store the points not yet cached.
			c.Call(f3, func() {
				for p := hit; p < points; p++ {
					c.Exec(computePerPoint)
					if p%4 == 0 {
						c.Store(cacheBase + uint64(p)*16)
					}
				}
			})
			t3 := c.Now()
			tr.F3 = t3 - t2
			if points > cached {
				cached = points
			}

			// log(d.id, timestamp) — bottom of the while loop.
			log.Mark(c, qu.ID, trace.ItemEnd)
			res.Truth[qu.ID] = tr
			res.Elapsed[qu.ID] = c.Now() - t0
		}
	})
	m.Wait()

	var samples []pmu.Sample
	if pebs != nil {
		samples = pebs.Samples()
	}
	res.Set = trace.NewSet(m, log, samples)
	return res, nil
}
