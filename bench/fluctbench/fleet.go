package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/ship"
	"repro/internal/trace"
)

type loadMode int

const (
	closedLoop  loadMode = iota // one set in flight per source
	pacedLoop                   // open loop on a fixed schedule
	catchupLoop                 // spool a backlog, then replay it through a restart
)

// fleetSpec sizes one fleet workload. Set-up work does not scale with
// --seconds; the measured load does.
type fleetSpec struct {
	name  string
	mode  loadMode
	shape setShape
	// pool is how many distinct sets each live source cycles through.
	pool int
	// idle sources each deliver one set in set-up and then stay silent:
	// they widen the fleet table every checkpoint and merge walks.
	idle int
	// rate is the paced schedule, sets/s per source.
	rate float64
	// backlog is fleet_catchup's round size: sets each source spools while
	// the collectors are down. A whole multiple of pool, so that every
	// round ships the same records whatever its number.
	backlog int
	// stretch is how many seconds one side of a traced run's pairs runs
	// (fleet_catchup: what one round takes, roughly; a stretch is a round).
	stretch float64
}

const (
	liveSources = 2
	// stepOnsetFrac places fleet_paced's seeded cost step at this
	// fraction of the stepped source's schedule.
	stepOnsetFrac = 1.0 / 3
	// minRounds is how many catch-up rounds an end-to-end run measures at
	// least, however short --seconds is: its metrics are medians across
	// rounds.
	minRounds = 3
	// sloAck is fleet_paced's latency limit on due→ack.
	sloAck = 50 * time.Millisecond
	// sliceLen is the slice every timed metric is computed over before
	// the median across slices is reported.
	sliceLen = time.Second
)

// setRec is the life of one shipped set as the bench saw it from outside.
type setRec struct {
	worker int
	key    setKey
	seq    uint64 // spool sequence number of the set's SetEnd frame
	items  int
	// start is when ShipSet was called (paced: when the set was due),
	// late how far behind schedule the call ran, handoff when ShipSet
	// returned; ack and vis are when the taps read the shard's and the
	// aggregator's acknowledgement covering the set.
	start, late, handoff time.Duration
	ack, vis             time.Duration
	done                 bool
	// stepped marks fleet_paced's sets that carry the seeded cost step.
	// They are half again as large as the rest, so the latency medians
	// leave them out rather than sit between two populations.
	stepped bool
	// round is the fleet_catchup round the set was spooled in.
	round int
}

// fleetEnv is a set-up fleet workload ready to measure.
type fleetEnv struct {
	spec      fleetSpec
	f         *fleet
	pools     [][]*trace.Set // per live worker
	stepPool  []*trace.Set   // fleet_paced: the stepped source's sets after the onset
	stepW     int
	idleIDs   []string
	inputHash uint64
	warm      uint64 // sets each worker shipped in set-up
	// next is how many measured sets each worker has shipped: a later
	// stretch of load carries on where the previous one stopped.
	next []int
	// onset is the measured-set index at which fleet_paced's stepped source
	// turns slow, fixed by the first stretch; -1 until then.
	onset int
}

// setFor returns worker wi's i-th measured set.
func (e *fleetEnv) setFor(wi, i int) *trace.Set {
	if e.stepPool != nil && wi == e.stepW && e.onset >= 0 && i >= e.onset {
		return e.stepPool[i%len(e.stepPool)]
	}
	return e.pools[wi][i%len(e.pools[wi])]
}

// onsetOrd is the ordinal of the stepped source's first slow set.
func (e *fleetEnv) onsetOrd() uint64 { return e.warm + uint64(e.onset) + 1 }

// setupFleet is everything that happens before the measured window:
// seeded input generation, topology start, idle-source registration, and
// a warm-up pass over each live source's pool.
func setupFleet(spec fleetSpec, seed uint64, dir string, traced bool) (*fleetEnv, error) {
	e := &fleetEnv{spec: spec, stepW: int(seed % liveSources), next: make([]int, liveSources), onset: -1}
	var all []*trace.Set
	for wi := 0; wi < liveSources; wi++ {
		var pool []*trace.Set
		for i := 0; i < spec.pool; i++ {
			pool = append(pool, genSet(seed, uint64(wi*spec.pool+i), uint64(i*spec.shape.items)+1, spec.shape, 1))
		}
		e.pools = append(e.pools, pool)
		all = append(all, pool...)
	}
	if spec.mode == pacedLoop {
		for i := 0; i < spec.pool; i++ {
			e.stepPool = append(e.stepPool,
				genSet(seed, uint64(liveSources*spec.pool+i), uint64(i*spec.shape.items)+1, spec.shape, 2))
		}
		all = append(all, e.stepPool...)
	}
	idleSet := genSet(seed, 1<<20, 1, spec.shape, 1)
	if spec.idle > 0 {
		all = append(all, idleSet)
	}
	e.inputHash = hashSets(all)

	f, err := startFleet(dir, liveSources, traced, true)
	if err != nil {
		return nil, err
	}
	e.f = f
	if spec.idle > 0 {
		e.idleIDs = pickSources(f.ring, "idle", spec.idle)
		if err := e.registerIdle(idleSet); err != nil {
			return nil, err
		}
	}
	// Warm-up: every live source ships its whole pool once, closed loop, so
	// the window starts with buffers pooled, symbols cached and the
	// detectors' baselines filled.
	_, err = e.perWorker(func(wi int, w *worker) ([]setRec, error) {
		for _, set := range e.pools[wi] {
			rec, err := w.ship(f, wi, set)
			if err != nil {
				return nil, err
			}
			if !w.await(rec.key) {
				return nil, fmt.Errorf("warm-up set from %s never became visible", w.source)
			}
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	e.warm = uint64(spec.pool)
	return e, nil
}

// registerIdle delivers one set from each idle source over a spool-less
// shipper and waits until the aggregator has merged them all.
func (e *fleetEnv) registerIdle(set *trace.Set) error {
	f := e.f
	sem := make(chan struct{}, 4) // a few connections at a time is plenty for set-up
	errs := make(chan error, len(e.idleIDs))
	for _, id := range e.idleIDs {
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			errs <- f.shipOnce(id, set)
		}()
	}
	for range e.idleIDs {
		if err := <-errs; err != nil {
			return err
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range e.idleIDs {
		for f.agg.SourceShard(id) == "" {
			if time.Now().After(deadline) {
				return fmt.Errorf("idle source %s never reached the aggregator", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// shipOnce ships one set from a throw-away spool-less shipper and waits
// for the owning shard to complete it.
func (f *fleet) shipOnce(source string, set *trace.Set) error {
	sp := f.shards[f.ring.Owner(source)]
	sh, err := ship.New(ship.Config{Addr: sp.ln.Addr().String(), Source: source, Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	run := make(chan error, 1)
	go func() { run <- sh.Run(f.ctx) }()
	if err := sh.ShipSet(set); err != nil {
		return err
	}
	sh.Close()
	<-run
	deadline := time.Now().Add(30 * time.Second)
	for {
		if src := sp.collector().Source(source); src != nil && src.Sets() >= 1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("idle source %s never completed its set", source)
		}
		time.Sleep(time.Millisecond)
	}
}

// ship hands one set to the worker's shipper and notes the sequence
// number its SetEnd was spooled under. One goroutine per worker calls it.
func (w *worker) ship(f *fleet, wi int, set *trace.Set) (setRec, error) {
	start := f.now()
	if err := w.sh.ShipSet(set); err != nil {
		return setRec{}, err
	}
	handoff := f.now()
	w.shipped++
	k := setKey{w.source, w.shipped}
	seq := w.appended.Value()
	w.acks.note(k, seq)
	return setRec{worker: wi, key: k, seq: seq, items: len(set.Markers) / 2, start: start, handoff: handoff}, nil
}

// await blocks until the set is acked by its shard and its summary by the
// aggregator; false if the run was aborted first.
func (w *worker) await(k setKey) bool {
	return w.acks.wait(k) && w.shard.vis.wait(k)
}

// cpuSampler records process CPU time every 100 ms so a slice's CPU can
// be read at its (set-completion-aligned) boundaries without a syscall on
// the measured path; beside it, the CPU time the hypervisor withheld from
// the whole guest, and the largest resident set it saw on the way.
type cpuSampler struct {
	at, cpu []time.Duration
	steal   []time.Duration
	rssMax  float64 // MB
	stop    chan struct{}
	done    chan struct{}
}

func (s *cpuSampler) sample(now time.Duration) {
	s.at, s.cpu = append(s.at, now), append(s.cpu, cpuTime())
	s.steal = append(s.steal, hostSteal())
	s.rssMax = max(s.rssMax, rssMB())
}

func startCPUSampler(now func() time.Duration) *cpuSampler {
	s := &cpuSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample(now())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.sample(now())
				return
			case <-tick.C:
				s.sample(now())
			}
		}
	}()
	return s
}

func (s *cpuSampler) finish() {
	close(s.stop)
	<-s.done
}

// cpuAt interpolates the process CPU time at t.
func (s *cpuSampler) cpuAt(t time.Duration) time.Duration { return s.interpolate(s.cpu, t) }

// stolen is the share of the guest's CPU capacity the hypervisor withheld
// between t0 and t1.
func (s *cpuSampler) stolen(t0, t1 time.Duration) float64 {
	if t1 <= t0 {
		return 0
	}
	return float64(s.interpolate(s.steal, t1)-s.interpolate(s.steal, t0)) / float64(t1-t0) / float64(runtime.NumCPU())
}

// interpolate reads a sampled cumulative series at t.
func (s *cpuSampler) interpolate(series []time.Duration, t time.Duration) time.Duration {
	i, _ := slices.BinarySearch(s.at, t)
	switch {
	case i == 0:
		return series[0]
	case i >= len(s.at):
		return series[len(series)-1]
	}
	span := s.at[i] - s.at[i-1]
	if span <= 0 {
		return series[i]
	}
	frac := float64(t-s.at[i-1]) / float64(span)
	return series[i-1] + time.Duration(frac*float64(series[i]-series[i-1]))
}

// fleetOutcome is what one measured stretch of fleet load produced.
type fleetOutcome struct {
	recs   []setRec // every measured set, all workers
	w0, w1 time.Duration
	cpu    *cpuSampler
	rounds []catchupRound
}

// cpuMsPerSet is the stretch's process CPU per completed set.
func (o *fleetOutcome) cpuMsPerSet() float64 {
	done := 0
	for _, r := range o.recs {
		if r.done {
			done++
		}
	}
	if done == 0 {
		return 0
	}
	return ms(o.cpu.cpuAt(o.w1)-o.cpu.cpuAt(o.w0)) / float64(done)
}

// merge appends a later stretch of the same topology.
func (o *fleetOutcome) merge(next *fleetOutcome) {
	if len(o.recs) == 0 {
		o.w0 = next.w0
	}
	for _, r := range next.recs {
		r.round += len(o.rounds)
		o.recs = append(o.recs, r)
	}
	o.rounds = append(o.rounds, next.rounds...)
	o.w1 = next.w1
}

// catchupRound is one fleet_catchup round: the backlog was spooled from
// w0, the collectors came up at up, the last set was visible by w1.
type catchupRound struct{ w0, up, w1 time.Duration }

// measure runs the workload's load shape for about seconds; fleet_catchup
// runs whole rounds, at least rounds of them. It can be called again: the
// next stretch carries on with the sets after this one's.
func (e *fleetEnv) measure(seconds float64, rounds int) (*fleetOutcome, error) {
	f := e.f
	// Nothing here may hang the run: if a set is still unacknowledged
	// well past any plausible completion, release every waiter and let
	// the unfinished sets count as failed.
	watchdog := time.AfterFunc(time.Duration(seconds*float64(time.Second))+90*time.Second, f.abort)
	defer watchdog.Stop()

	out := &fleetOutcome{w0: f.now()}
	out.cpu = startCPUSampler(f.now)
	var err error
	switch e.spec.mode {
	case closedLoop:
		err = e.runClosed(out, seconds)
	case pacedLoop:
		err = e.runPaced(out, seconds)
	case catchupLoop:
		err = e.runCatchup(out, seconds, rounds)
	}
	out.cpu.finish()
	if err != nil {
		return nil, err
	}
	for i := range out.recs {
		r := &out.recs[i]
		w := f.workers[r.worker]
		ack, ok1 := w.acks.timeOf(r.key)
		vis, ok2 := w.shard.vis.timeOf(r.key)
		r.ack, r.vis, r.done = ack, vis, ok1 && ok2
	}
	return out, nil
}

// abort releases everything waiting on an acknowledgement, and says where
// each hop stood: whatever is stuck is a defect worth more than the run.
func (f *fleet) abort() {
	for _, w := range f.workers {
		at := "unknown to its shard"
		if src := w.shard.collector().Source(w.source); src != nil {
			at = fmt.Sprintf("sets=%d acked=%d open=%v", src.Sets(), src.LastAcked(), src.SetOpen())
		}
		count := func(name string) uint64 { return w.shard.reg.Counter(name).Value() }
		fmt.Fprintf(os.Stderr, "watchdog: %s shipped %d sets, spool seq %d, %d frames pending, last ack read %d, %d reconnects; %s: %s, %d duplicate frames, %d frames failed to apply\n",
			w.source, w.shipped, w.appended.Value(), w.sh.PendingFrames(), w.acks.highest(),
			w.reg.Counter("fluct_ship_reconnects_total").Value(), w.shard.id, at,
			count("fluct_collector_duplicate_frames_total"), count("fluct_collector_crc_errors_total"))
		w.acks.close()
	}
	for _, sp := range f.shards {
		sp.vis.close()
	}
}

// perWorker runs fn once per live worker concurrently and returns the
// records they produced, or the first error.
func (e *fleetEnv) perWorker(fn func(wi int, w *worker) ([]setRec, error)) ([]setRec, error) {
	var mu sync.Mutex
	var all []setRec
	var firstErr error
	var wg sync.WaitGroup
	for wi, w := range e.f.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs, err := fn(wi, w)
			mu.Lock()
			all = append(all, recs...)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, firstErr
}

// runClosed: every source ships its next set only once the previous one
// is acked by the shard and visible at the aggregator.
func (e *fleetEnv) runClosed(out *fleetOutcome, seconds float64) error {
	f := e.f
	end := out.w0 + time.Duration(seconds*float64(time.Second))
	recs, err := e.perWorker(func(wi int, w *worker) ([]setRec, error) {
		var recs []setRec
		for ; f.now() < end; e.next[wi]++ {
			rec, err := w.ship(f, wi, e.setFor(wi, e.next[wi]))
			if err != nil {
				return recs, err
			}
			recs = append(recs, rec)
			if !w.await(rec.key) {
				break
			}
		}
		return recs, nil
	})
	out.recs, out.w1 = recs, f.now()
	return err
}

// runPaced: every source ships on a fixed schedule whatever the pipeline
// is doing; a set's clock starts when it was due.
func (e *fleetEnv) runPaced(out *fleetOutcome, seconds float64) error {
	f := e.f
	period := time.Duration(float64(time.Second) / e.spec.rate)
	n := max(int(seconds*e.spec.rate), 1)
	if e.onset < 0 {
		e.onset = int(float64(n) * stepOnsetFrac)
	}
	recs, err := e.perWorker(func(wi int, w *worker) ([]setRec, error) {
		recs := make([]setRec, 0, n)
		offset := period * time.Duration(wi) / liveSources // sources do not fire in lockstep
		for i := 0; i < n; i++ {
			due := out.w0 + offset + period*time.Duration(i)
			if wait := due - f.now(); wait > 0 {
				time.Sleep(wait)
			}
			late := f.now() - due
			rec, err := w.ship(f, wi, e.setFor(wi, e.next[wi]))
			if err != nil {
				return recs, err
			}
			rec.start, rec.late = due, late
			rec.stepped = wi == e.stepW && e.next[wi] >= e.onset
			e.next[wi]++
			recs = append(recs, rec)
		}
		if len(recs) > 0 {
			w.await(recs[len(recs)-1].key) // acks are cumulative: the last covers all
		}
		return recs, nil
	})
	out.recs, out.w1 = recs, f.now()
	return err
}

// runCatchup repeats rounds until seconds have passed, at least rounds of
// them. A round: phase A spools a backlog with the collectors down; phase
// B brings each shard collector back, re-created from its checkpoint file,
// and the backlog replays from disk.
//
// The collectors are restarted while nothing is in flight, not part-way
// through the replay, because a cut that loses an acknowledgement wedges
// the link for good: the collector answers the next TSeqStart with a
// watermark ahead of the shipper's, the shipper skips ahead to it
// (ship.nextBatch) while the collector goes on numbering the frames it
// receives from TSeqStart.FirstSeq, the set's TSymtab is dropped as a
// duplicate, the rest of the set fails to apply, and its TSetEnd is never
// acknowledged. A mid-replay restart hit that once in about 200; a
// benchmark needs workloads on which nothing fails, so retransmission and
// dedup are not exercised here.
func (e *fleetEnv) runCatchup(out *fleetOutcome, seconds float64, rounds int) error {
	f := e.f
	end := out.w0 + time.Duration(seconds*float64(time.Second))
	n := e.spec.backlog
	for r := 0; r < rounds || f.now() < end; r++ {
		f.reachable.Store(false)
		for _, sp := range f.shards {
			sp.collector().CloseConns()
		}
		round := catchupRound{w0: f.now()}
		recs, err := e.perWorker(func(wi int, w *worker) ([]setRec, error) {
			recs := make([]setRec, 0, n)
			for i := 0; i < n; i++ {
				rec, err := w.ship(f, wi, e.setFor(wi, e.next[wi]))
				if err != nil {
					return recs, err
				}
				rec.round = len(out.rounds)
				e.next[wi]++
				recs = append(recs, rec)
			}
			return recs, nil
		})
		out.recs = append(out.recs, recs...)
		if err != nil {
			return err
		}
		round.up = f.now()
		for _, sp := range f.shards {
			if err := sp.restart(); err != nil {
				return err
			}
		}
		f.reachable.Store(true)

		var aborted atomic.Bool
		e.perWorker(func(wi int, w *worker) ([]setRec, error) {
			if !w.await(setKey{w.source, w.shipped}) {
				aborted.Store(true)
			}
			return nil, nil
		})
		round.w1 = f.now()
		out.rounds = append(out.rounds, round)
		if aborted.Load() {
			break // released by the watchdog: the unfinished sets count as failed
		}
	}
	out.w1 = f.now()
	return nil
}

// teardown stops the topology and deletes its state.
func (e *fleetEnv) teardown() {
	if e.f == nil {
		return // already torn down
	}
	e.f.stop()
	os.RemoveAll(e.f.dir)
	e.f = nil
}

// drain waits for the uplinks to have nothing pending, so that the final
// state the output check reads is the settled one.
func (f *fleet) drain() {
	ctx, cancel := context.WithTimeout(f.ctx, 30*time.Second)
	defer cancel()
	for _, sp := range f.shards {
		_ = sp.up.Drain(ctx) // a timeout shows up as a failed output check
	}
}
