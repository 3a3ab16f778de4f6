// Package dbsim is a miniature in-memory database engine in the MariaDB
// thread-pool architecture ("there should be a single active thread for
// each CPU on the machine" — §III-C): partitioned tables, per-worker buffer
// pools over a slow backing store, write-ahead logging with group commit,
// and periodic checkpoints.
//
// It exists because the paper's opening motivation is Huang et al.'s TPC-C
// measurement that on popular database engines "the standard deviation was
// twice the mean" and "the 99th percentile was an order of magnitude
// greater than the mean" [1]. This engine reproduces that latency shape
// from explicit non-functional state — buffer-pool warmth, group-commit
// fsyncs, checkpoint stalls — and the hybrid tracer then attributes each
// slow query to the function that absorbed the stall, which is precisely
// the diagnosis the paper's method promises.
//
// Each worker owns a 4,096-page partition behind a 1,024-page buffer pool
// (smaller than the table, so cold keys miss). A miss blocks on storage for
// 200,000 cycles (100 µs at 2 GHz); every 24th insert on a worker pays a
// 300,000-cycle (150 µs) group-commit fsync; every 400th query on a worker
// checkpoints, at 6,000 cycles (3 µs) per dirty page. Workers run at IPC 2,
// markers cost trace.DefaultMarkerUops and PEBS runs with
// pmu.PEBSConfig's defaults.
package dbsim

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/pmu"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/symtab"
	"repro/internal/trace"
)

// Worker-thread function symbols.
const (
	FnParse       = "parse_query"
	FnIndexLookup = "btr_index_lookup"
	FnFetchPage   = "buf_fetch_page"
	FnApplyUpdate = "row_apply_update"
	FnWalAppend   = "wal_append"
	FnCheckpoint  = "buf_flush_checkpoint"
	FnSendResult  = "net_send_result"
)

// QueryKind classifies the workload mix.
type QueryKind uint8

const (
	// PointRead fetches one row by key.
	PointRead QueryKind = iota
	// RangeScan reads a span of consecutive pages.
	RangeScan
	// Insert writes one row and appends to the WAL.
	Insert
)

// String implements fmt.Stringer.
func (k QueryKind) String() string {
	switch k {
	case PointRead:
		return "point"
	case RangeScan:
		return "scan"
	case Insert:
		return "insert"
	}
	return "?"
}

// Query is one data-item.
type Query struct {
	ID   uint64
	Kind QueryKind
	// Key selects the page (modulo the table size).
	Key uint64
	// Span is the page count for RangeScan.
	Span int
}

// The engine's storage costs; see the package comment.
const (
	tablePages           = 4096
	bufferPoolPages      = 1024
	diskReadCycles       = 200_000
	fsyncCycles          = 300_000
	groupCommit          = 24
	checkpointEvery      = 400
	checkpointPageCycles = 6_000
)

// Config parameterizes the engine.
type Config struct {
	// Workers is the number of worker threads, one pinned core each
	// (default 2).
	Workers int
	// Reset enables PEBS on every worker core when > 0.
	Reset uint64
}

// Mix generates a TPC-C-flavoured query mix: mostly point reads and
// inserts with a minority of scans, over a zipf-ish hot/cold key split.
func Mix(n int, seed uint64) []Query {
	if seed == 0 {
		seed = 0x6a09e667f3bcc909
	}
	rng := xorshift(seed)
	qs := make([]Query, 0, n)
	for i := 1; i <= n; i++ {
		q := Query{ID: uint64(i)}
		switch v := rng.next() % 100; {
		case v < 45:
			q.Kind = PointRead
		case v < 55:
			q.Kind = RangeScan
			q.Span = int(rng.next()%24) + 8
		default:
			q.Kind = Insert
		}
		// 80% of accesses hit a hot set that fits any reasonable buffer
		// pool; the rest scatter over a key space far larger than it, so
		// cold accesses miss — the cache-warmth non-functional state.
		if rng.next()%10 < 8 {
			q.Key = rng.next() % 700
		} else {
			q.Key = rng.next() % (1 << 20)
		}
		qs = append(qs, q)
	}
	return qs
}

// QueryStat is one query's outcome with its diagnosis inputs.
type QueryStat struct {
	Query  Query
	Worker int
	Cycles uint64
	// Misses is how many buffer-pool misses the query paid.
	Misses int
	// Fsynced marks queries that absorbed a group-commit flush.
	Fsynced bool
	// Checkpointed marks queries that absorbed a checkpoint.
	Checkpointed bool
}

// Result bundles a run.
type Result struct {
	// Set is the hybrid trace across all worker cores.
	Set *trace.Set
	// Stats maps query ID to its outcome.
	Stats map[uint64]QueryStat
	// FreqHz for conversions.
	FreqHz uint64
}

// CyclesToMicros converts cycles to µs.
func (r *Result) CyclesToMicros(cy uint64) float64 {
	return float64(cy) * 1e6 / float64(r.FreqHz)
}

// SlowestFirst returns every query ID by total cycles, slowest first, and
// equal totals in ID order, so a report does not follow Stats' map order.
func (r *Result) SlowestFirst() []uint64 {
	ids := make([]uint64, 0, len(r.Stats))
	for id := range r.Stats {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b uint64) int {
		if c := cmp.Compare(r.Stats[b].Cycles, r.Stats[a].Cycles); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ids
}

type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// bufferPool is a CLOCK-approximated LRU page cache (per worker; the
// engine is shared-nothing across workers, like a partitioned store).
type bufferPool struct {
	capacity int
	frames   []uint64 // page ids
	ref      []bool
	dirty    map[uint64]bool
	index    map[uint64]int
	hand     int
}

func newBufferPool(capacity int) *bufferPool {
	return &bufferPool{
		capacity: capacity,
		index:    make(map[uint64]int, capacity),
		dirty:    map[uint64]bool{},
	}
}

// touch returns true on hit; on miss it installs the page, evicting via
// CLOCK, and returns false.
func (b *bufferPool) touch(page uint64) bool {
	if i, ok := b.index[page]; ok {
		b.ref[i] = true
		return true
	}
	if len(b.frames) < b.capacity {
		b.frames = append(b.frames, page)
		b.ref = append(b.ref, true)
		b.index[page] = len(b.frames) - 1
		return false
	}
	for {
		if !b.ref[b.hand] {
			old := b.frames[b.hand]
			delete(b.index, old)
			delete(b.dirty, old)
			b.frames[b.hand] = page
			b.ref[b.hand] = true
			b.index[page] = b.hand
			b.hand = (b.hand + 1) % b.capacity
			return false
		}
		b.ref[b.hand] = false
		b.hand = (b.hand + 1) % b.capacity
	}
}

func (b *bufferPool) markDirty(page uint64) { b.dirty[page] = true }

func (b *bufferPool) flushDirty() int {
	n := len(b.dirty)
	b.dirty = map[uint64]bool{}
	return n
}

// pageBase gives each (worker, page) a distinct synthetic address range.
func pageBase(worker int, page uint64) uint64 {
	return 0x6000_0000 + uint64(worker)<<28 + page*16384
}

// Run executes the query stream across the worker pool and returns the
// trace plus per-query ground truth. Queries are distributed round-robin,
// preserving determinism (each worker's substream is fixed).
func Run(cfg Config, queries []Query) (*Result, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("dbsim: no queries")
	}
	for _, q := range queries {
		if q.ID == 0 {
			return nil, fmt.Errorf("dbsim: query IDs must be non-zero")
		}
		if q.Kind == RangeScan && q.Span <= 0 {
			return nil, fmt.Errorf("dbsim: query %d: scans need a positive span", q.ID)
		}
	}

	// Core 0 dispatches; cores 1..Workers run the pool.
	m, err := sim.New(sim.Config{Cores: cfg.Workers + 1})
	if err != nil {
		return nil, err
	}
	fns := map[string]*symtab.Fn{}
	for _, name := range []string{FnParse, FnIndexLookup, FnFetchPage, FnApplyUpdate, FnWalAppend, FnCheckpoint, FnSendResult} {
		fns[name] = m.Syms.MustRegister(name, 2048)
	}
	log := trace.NewMarkerLog(cfg.Workers+1, trace.DefaultMarkerUops)

	var pebses []*pmu.PEBS
	rings := make([]*queue.SPSC[Query], cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		rings[w] = queue.New[Query](queue.Config{Capacity: 512})
		core := m.Core(w + 1)
		core.SetRate(1, 2) // IPC 2
		if cfg.Reset > 0 {
			pb := pmu.NewPEBS(pmu.PEBSConfig{})
			core.PMU.MustProgram(pmu.UopsRetired, cfg.Reset, pb)
			pebses = append(pebses, pb)
		}
	}

	res := &Result{Stats: make(map[uint64]QueryStat, len(queries)), FreqHz: m.FreqHz()}
	perWorker := make([][]QueryStat, cfg.Workers)

	m.MustSpawn(0, func(c *sim.Core) {
		for i, q := range queries {
			c.Exec(400) // admission
			rings[i%cfg.Workers].Push(c, q)
		}
		for _, r := range rings {
			r.Close()
		}
	})

	for w := 0; w < cfg.Workers; w++ {
		w := w
		m.MustSpawn(w+1, func(c *sim.Core) {
			pool := newBufferPool(bufferPoolPages)
			pendingWal := 0
			served := 0
			fetch := func(page uint64, st *QueryStat) {
				c.Call(fns[FnFetchPage], func() {
					c.Exec(900) // hash the page id, probe the pool
					c.Load(pageBase(w, page))
					if !pool.touch(page) {
						st.Misses++
						c.Exec(600)                  // issue the read
						c.ExecCycles(diskReadCycles) // blocked on storage
						c.Exec(1800)                 // install + pin
					}
					c.Exec(1200) // copy the row(s) out
					c.Load(pageBase(w, page) + 64)
				})
			}
			for {
				q, ok := rings[w].Pop(c)
				if !ok {
					return
				}
				st := QueryStat{Query: q, Worker: w}
				served++
				log.Mark(c, q.ID, trace.ItemBegin)
				t0 := c.Now()

				c.Call(fns[FnParse], func() { c.Exec(5200) })
				c.Call(fns[FnIndexLookup], func() {
					c.Exec(3600)
					for d := 0; d < 3; d++ { // a 3-level B-tree descent
						c.Load(pageBase(w, tablePages+uint64(d)))
					}
				})
				page := q.Key % tablePages
				switch q.Kind {
				case PointRead:
					fetch(page, &st)
				case RangeScan:
					for s := 0; s < q.Span; s++ {
						fetch((page+uint64(s))%tablePages, &st)
					}
				case Insert:
					fetch(page, &st)
					c.Call(fns[FnApplyUpdate], func() {
						c.Exec(2600)
						c.Store(pageBase(w, page) + 128)
						pool.markDirty(page)
					})
					c.Call(fns[FnWalAppend], func() {
						c.Exec(1500)
						pendingWal++
						if pendingWal >= groupCommit {
							pendingWal = 0
							st.Fsynced = true
							c.ExecCycles(fsyncCycles) // the group pays here
							c.Exec(1600)              // durable-LSN bookkeeping
						}
					})
				}
				if served%checkpointEvery == 0 {
					c.Call(fns[FnCheckpoint], func() {
						n := pool.flushDirty()
						c.Exec(2000)
						c.ExecCycles(uint64(n) * checkpointPageCycles)
						c.Exec(1500) // checkpoint-record write-out
						if n > 0 {
							st.Checkpointed = true
						}
					})
				}
				c.Call(fns[FnSendResult], func() { c.Exec(2800) })

				log.Mark(c, q.ID, trace.ItemEnd)
				st.Cycles = c.Now() - t0
				perWorker[w] = append(perWorker[w], st)
			}
		})
	}
	m.Wait()

	for _, stats := range perWorker {
		for _, st := range stats {
			res.Stats[st.Query.ID] = st
		}
	}
	res.Set = trace.NewSet(m, log, pmu.MergeSamples(pebses...))
	return res, nil
}
