package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/collector"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/ship"
	"repro/internal/wire"
)

// The topology under test, built in one process over loopback TCP:
//
//	worker ship.Shipper (spooled) ──► shard collector.Collector ─ agg.Uplink (spooled) ──► agg.Aggregator
//
// two shards, sources routed by the consistent-hash ring, checkpoints and
// online detection on, every component at its default configuration except
// the reconnect backoff (a deployment setting: the defaults of 50 ms–5 s
// would make fleet_catchup measure sleep).

const (
	shardA, shardB = "shard-a", "shard-b"

	backoffMin = 5 * time.Millisecond
	backoffMax = 20 * time.Millisecond

	// aggTopK makes the aggregator's merged view hold every item of every
	// source's last set, which is how the output check reads one source's
	// items back at the far end of the pipeline. MergeFleet sorts all
	// items before truncating, so the size of K does not change its cost.
	aggTopK = 1 << 20
)

var errUnreachable = errors.New("fluctbench: collectors are down")

// fleet is one running topology plus the bench's taps on it.
type fleet struct {
	dir    string
	traced bool
	t0     time.Time
	ring   *agg.Ring

	agg    *agg.Aggregator
	aggLn  net.Listener
	shards map[string]*shardProc

	workers []*worker

	// reachable gates the workers' dials: false is fleet_catchup's
	// "collectors unreachable" phase.
	reachable atomic.Bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // accept loops and connection handlers

	mu       sync.Mutex
	verdicts []verdictEvent
	shardTA  []turnaround // shard-side SetEnd→TAck (traced)
	aggTA    []turnaround // aggregator-side frame→TAck (traced)
	onSum    []onSummarySpan
}

// verdictEvent is one verdict as the shard's detector emitted it, stamped
// with how many sets the source had completed at that moment.
type verdictEvent struct {
	v        detect.Verdict
	setsDone uint64
}

type onSummarySpan struct {
	key        setKey
	start, end time.Duration
}

// shardProc is one shard: collector, its uplink, and the bench's view of
// the uplink's sequenced stream.
type shardProc struct {
	f    *fleet
	id   string
	ln   net.Listener
	reg  *obs.Registry
	cfg  collector.Config
	up   *agg.Uplink
	upCh chan error

	// mu guards coll across fleet_catchup's restarts.
	mu   sync.RWMutex
	coll *collector.Collector

	// upMu orders the OnSummary/OnVerdicts calls of the collector's ingest
	// goroutines, so the spool sequence number of the frame a call
	// enqueued can be read back from the uplink spool's append counter.
	upMu       sync.Mutex
	upAppended *obs.Counter
	vis        *ackLog // summary frame seq ↔ (source, set), aggregator acks
	setsDone   map[string]uint64
	lastSum    wire.FleetSummary // newest summary, retained for the codec probe
}

// worker is one live source: a spooled shipper and its ack log.
type worker struct {
	source   string
	shard    *shardProc
	reg      *obs.Registry
	sh       *ship.Shipper
	runCh    chan error
	acks     *ackLog      // SetEnd seq ↔ set ordinal, shard acks
	appended *obs.Counter // spool append counter: seq of the newest spooled frame
	shipped  uint64       // sets handed to ShipSet so far
}

func (f *fleet) now() time.Duration { return time.Since(f.t0) }

// pickSources returns n source IDs with the given prefix, alternating
// between the two shards by ring ownership, so live sources always split
// evenly whatever the hash does with a particular name.
func pickSources(ring *agg.Ring, prefix string, n int) []string {
	var out []string
	for i := 0; len(out) < n; i++ {
		id := fmt.Sprintf("%s-%d", prefix, i)
		want := shardA
		if len(out)%2 == 1 {
			want = shardB
		}
		if ring.Owner(id) == want {
			out = append(out, id)
		}
	}
	return out
}

// startFleet brings the whole topology up under dir (which must be
// empty): aggregator, both shards with their uplinks, and live workers. A
// failure here ends the run, so a half-started topology is not unwound.
func startFleet(dir string, live int, traced, reachable bool) (*fleet, error) {
	f := &fleet{
		dir:    dir,
		traced: traced,
		t0:     time.Now(),
		ring:   agg.NewRing(shardA, shardB),
		shards: map[string]*shardProc{},
	}
	f.reachable.Store(reachable)
	f.ctx, f.cancel = context.WithCancel(context.Background())

	a, err := agg.New(agg.Config{
		TopK:           aggTopK,
		CheckpointPath: filepath.Join(dir, "agg.ckpt"),
		Registry:       obs.NewRegistry(),
	})
	if err != nil {
		return nil, err
	}
	f.agg = a
	if f.aggLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	f.serve(f.aggLn, func(c net.Conn) {
		if traced {
			c = newServerTap(c, f.now,
				func(t wire.Type) bool { return t == wire.TFleetSummary || t == wire.TVerdicts },
				func(ta turnaround) { f.mu.Lock(); f.aggTA = append(f.aggTA, ta); f.mu.Unlock() })
		}
		a.HandleConn(c)
	})

	for _, id := range []string{shardA, shardB} {
		sp, err := f.startShard(id)
		if err != nil {
			return nil, err
		}
		f.shards[id] = sp
	}
	for _, src := range pickSources(f.ring, "worker", live) {
		w, err := f.startWorker(src)
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	return f, nil
}

// serve accepts on ln until it closes, handling each connection on its
// own goroutine.
func (f *fleet) serve(ln net.Listener, handle func(net.Conn)) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				handle(c)
			}()
		}
	}()
}

// tapDial dials TCP and puts the ack tap on the connection's read side.
func (f *fleet) tapDial(log *ackLog, gated bool) ship.DialFunc {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		if gated && !f.reachable.Load() {
			return nil, errUnreachable
		}
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return newAckConn(c.(*net.TCPConn), log, f.now), nil
	}
}

func (f *fleet) startShard(id string) (*shardProc, error) {
	sp := &shardProc{
		f:        f,
		id:       id,
		reg:      obs.NewRegistry(),
		vis:      newAckLog(),
		setsDone: map[string]uint64{},
		upCh:     make(chan error, 1),
	}
	up, err := agg.NewUplink(agg.UplinkConfig{
		Addr:       f.aggLn.Addr().String(),
		Shard:      id,
		SpoolDir:   filepath.Join(f.dir, "uplink-"+id),
		Dial:       f.tapDial(sp.vis, false),
		BackoffMin: backoffMin,
		BackoffMax: backoffMax,
		Registry:   sp.reg,
	})
	if err != nil {
		return nil, err
	}
	sp.up = up
	sp.upAppended = sp.reg.Counter("fluct_spool_appended_frames_total")
	sp.cfg = collector.Config{
		CheckpointPath: filepath.Join(f.dir, id+".ckpt"),
		Registry:       sp.reg,
		Detect:         &detect.Config{},
		OnSummary:      sp.onSummary,
		OnVerdicts:     sp.onVerdicts,
		OnVerdict:      sp.onVerdict,
	}
	if sp.coll, err = collector.New(sp.cfg); err != nil {
		return nil, err
	}
	if sp.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go func() { sp.upCh <- up.Run(f.ctx) }()
	f.serve(sp.ln, func(c net.Conn) {
		if f.traced {
			c = newServerTap(c, f.now,
				func(t wire.Type) bool { return t == wire.TSetEnd },
				func(ta turnaround) { f.mu.Lock(); f.shardTA = append(f.shardTA, ta); f.mu.Unlock() })
		}
		sp.mu.RLock()
		coll := sp.coll
		sp.mu.RUnlock()
		coll.HandleConn(c)
	})
	return sp, nil
}

// onSummary forwards one completed set's summary to the uplink and notes
// which uplink sequence number carries it.
func (sp *shardProc) onSummary(fs wire.FleetSummary) {
	k := setKey{fs.Source, fs.Sets}
	sp.upMu.Lock()
	start := sp.f.now()
	sp.up.OnSummary(fs)
	end := sp.f.now()
	seq := sp.upAppended.Value()
	sp.setsDone[fs.Source] = fs.Sets
	sp.lastSum = fs
	sp.upMu.Unlock()
	sp.vis.note(k, seq)
	if sp.f.traced {
		sp.f.mu.Lock()
		sp.f.onSum = append(sp.f.onSum, onSummarySpan{k, start, end})
		sp.f.mu.Unlock()
	}
}

func (sp *shardProc) onVerdicts(vs wire.VerdictSet) {
	sp.upMu.Lock()
	sp.up.OnVerdicts(vs)
	sp.upMu.Unlock()
}

func (sp *shardProc) onVerdict(v detect.Verdict) {
	sp.upMu.Lock()
	done := sp.setsDone[v.Source]
	sp.upMu.Unlock()
	sp.f.mu.Lock()
	sp.f.verdicts = append(sp.f.verdicts, verdictEvent{v, done})
	sp.f.mu.Unlock()
}

// collector returns the shard's current collector.
func (sp *shardProc) collector() *collector.Collector {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.coll
}

// restart closes the shard's collector and re-creates it from its
// checkpoint file, the way the daemon is restarted. fleet_catchup calls it
// only while the shard is idle — every set it received acknowledged and
// its connections already cut — see runCatchup for why.
func (sp *shardProc) restart() error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if err := sp.coll.Close(); err != nil {
		return err
	}
	c, err := collector.New(sp.cfg)
	if err != nil {
		return err
	}
	sp.coll = c
	return nil
}

func (f *fleet) startWorker(source string) (*worker, error) {
	sp := f.shards[f.ring.Owner(source)]
	w := &worker{
		source: source,
		shard:  sp,
		reg:    obs.NewRegistry(),
		acks:   newAckLog(),
		runCh:  make(chan error, 1),
	}
	sh, err := ship.New(ship.Config{
		Addr:       sp.ln.Addr().String(),
		Source:     source,
		SpoolDir:   filepath.Join(f.dir, "spool-"+source),
		Dial:       f.tapDial(w.acks, true),
		BackoffMin: backoffMin,
		BackoffMax: backoffMax,
		Registry:   w.reg,
	})
	if err != nil {
		return nil, err
	}
	w.sh = sh
	w.appended = w.reg.Counter("fluct_spool_appended_frames_total")
	go func() { w.runCh <- sh.Run(f.ctx) }()
	return w, nil
}

// stop tears the topology down: shippers and uplinks first (their Run
// loops close the spools), then listeners and servers, then every
// connection handler is waited for.
func (f *fleet) stop() {
	f.cancel()
	for _, w := range f.workers {
		w.acks.close()
		<-w.runCh
	}
	for _, sp := range f.shards {
		sp.vis.close()
		<-sp.upCh
		sp.ln.Close()
		_ = sp.collector().Close() // final checkpoint of a topology being discarded
	}
	f.aggLn.Close()
	_ = f.agg.Close()
	f.wg.Wait()
}
