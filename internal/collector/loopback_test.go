package collector

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/ship"
	"repro/internal/sim"
	"repro/internal/trace"
)

// workloadSet builds a deterministic two-core request workload trace, the
// shape a fleet worker would ship.
func workloadSet(t testing.TB, requests int) *trace.Set {
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
		pebs[ci] = pmu.NewPEBS(pmu.PEBSConfig{})
		m.Core(ci).PMU.MustProgram(pmu.UopsRetired, 4000, pebs[ci])
		m.MustSpawn(ci, func(c *sim.Core) {
			for r := 0; r < perCore; r++ {
				id := first + uint64(r)
				log.Mark(c, id, trace.ItemBegin)
				c.Call(lookup, func() {
					for l := 0; l < 150; l++ {
						c.Exec(14)
					}
					if id%37 == 0 {
						c.Exec(25000) // the rare slow item
					}
				})
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

// startCollector serves a fresh collector on an ephemeral loopback port.
func startCollector(t testing.TB, cfg Config) (*Collector, string) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go c.Serve(l)
	return c, l.Addr().String()
}

// waitSets polls until the source has delivered n complete sets.
func waitSets(t testing.TB, c *Collector, source string, n uint64, timeout time.Duration) *Source {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if src := c.Source(source); src != nil && src.Sets() >= n {
			return src
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector never finished %d set(s) from %q", n, source)
		}
		time.Sleep(time.Millisecond)
	}
}

// shipAtOnce ships set from every named source at once — one shipper
// each, all running together — and returns once the collector holds every
// source's set.
func shipAtOnce(t *testing.T, coll *Collector, addr string, set *trace.Set, sources ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var shippers []*ship.Shipper
	var runs []chan error
	for _, id := range sources {
		// Backpressure is not under test here; size the queue for several
		// sets.
		s, err := ship.New(ship.Config{Addr: addr, Source: id, Registry: obs.NewRegistry(), QueueFrames: 1 << 13})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- s.Run(ctx) }()
		shippers, runs = append(shippers, s), append(runs, done)
	}
	for _, s := range shippers {
		if err := s.ShipSet(set); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range shippers {
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range sources {
		waitSets(t, coll, id, 1, 20*time.Second)
	}
	cancel()
	for _, done := range runs {
		<-done
	}
}

// TestLoopbackEquivalence is the subsystem's acceptance bar: a trace set
// shipped over a real TCP loopback must integrate on the collector to a
// report byte-identical to a local core.Integrate of the same set — at
// Parallelism 1 and at GOMAXPROCS (whose outputs are themselves pinned
// identical by the core package).
func TestLoopbackEquivalence(t *testing.T) {
	set := workloadSet(t, 120)
	// Each connection applies its own frames, so the apply runs on as many
	// goroutines as there are sources shipping at once: shards=1 is one
	// source alone, shards=4 is four sources whose connection goroutines
	// decode and integrate side by side in one collector.
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			coll, addr := startCollector(t, Config{})
			var sources []string
			for i := 1; i <= shards; i++ {
				sources = append(sources, fmt.Sprintf("worker-%d", i))
			}
			shipAtOnce(t, coll, addr, set, sources...)
			for _, id := range sources {
				checkLoopbackSource(t, coll, id, set)
			}
		})
	}
}

// checkLoopbackSource requires source id's report on coll to equal a local
// Integrate of set.
func checkLoopbackSource(t *testing.T, coll *Collector, id string, set *trace.Set) {
	t.Helper()
	src := coll.Source(id)
	var shipped bytes.Buffer
	RenderItems(&shipped, src.FreqHz(), src.Items())

	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		local, err := core.Integrate(set, core.Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		RenderItems(&want, local.FreqHz, local.Items)
		if !bytes.Equal(shipped.Bytes(), want.Bytes()) {
			t.Fatalf("%s, parallelism %d: collector report differs from local Integrate: %s",
				id, par, firstDiff(shipped.String(), want.String()))
		}
	}

	// The transport lost nothing on a clean link.
	if src.Diag().UnattributedSamples != 0 {
		// Unattributed samples exist in any trace (inter-item gaps); just
		// require agreement with the local pass.
		local, _ := core.Integrate(set, core.Options{})
		if src.Diag().UnattributedSamples != local.Diag.UnattributedSamples {
			t.Fatalf("%s unattributed: shipped %d, local %d",
				id, src.Diag().UnattributedSamples, local.Diag.UnattributedSamples)
		}
	}
}

// firstDiff trims two long reports to the first differing line, keeping
// failure output readable.
func firstDiff(a, b string) string {
	la, lb := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			start := la
			if lb < start {
				start = lb
			}
			end := i + 120
			if end > len(a) {
				end = len(a)
			}
			return "...first difference near byte " + a[start:end]
		}
		if a[i] == '\n' {
			la = i + 1
		}
		if b[i] == '\n' {
			lb = i + 1
		}
	}
	return "(one report is a prefix of the other)"
}

// TestLoopbackCutFrame: with mid-frame connection cuts injected on every
// dial — one write in five, so no connection ever carries the whole set —
// the ship must still complete, because every reconnect resumes where the
// collector is instead of replaying from the set boundary; and since every
// frame is numbered, what completes is exact: a report byte-identical to a
// local Integrate, with nothing lost and nothing aborted. It must hold
// whether the unacknowledged frames wait in memory or in a spool.
func TestLoopbackCutFrame(t *testing.T) {
	set := workloadSet(t, 80)
	for _, mode := range []string{"memory", "spool"} {
		t.Run(mode, func(t *testing.T) {
			coll, addr := startCollector(t, Config{})

			plan, err := faults.ParsePlan("seed=11,net=cutframe,netrate=0.2")
			if err != nil {
				t.Fatal(err)
			}
			base := func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
			wrapped := faults.WrapDial(plan.Net, base)

			shipReg := obs.NewRegistry()
			cfg := ship.Config{
				Addr:   addr,
				Source: "worker-cut",
				Dial: func(ctx context.Context, addr string) (net.Conn, error) {
					return wrapped(addr)
				},
				// A few records to a frame: the set is ≈40 writes, so the cuts
				// land inside it.
				BatchRecords: 8,
				BackoffMin:   time.Millisecond,
				BackoffMax:   10 * time.Millisecond,
				Registry:     shipReg,
			}
			if mode == "spool" {
				cfg.SpoolDir = t.TempDir()
			}
			s, err := ship.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- s.Run(ctx) }()
			if err := s.ShipSet(set); err != nil {
				t.Fatal(err)
			}
			if err := s.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			src := waitSets(t, coll, "worker-cut", 1, 30*time.Second)
			cancel()
			<-done

			if got := shipReg.Counter("fluct_ship_reconnects_total").Value(); got == 0 {
				t.Error("cutframe run never reconnected — the fault injector did nothing")
			}
			assertReportEquals(t, "set shipped over the cut link", src, set)
			assertDeliveredWhole(t, coll, "worker-cut", 1)
		})
	}
}

// assertDeliveredWhole pins the fleet row of a source whose sets all
// arrived complete: the exact set count, nothing aborted, no record lost.
func assertDeliveredWhole(t *testing.T, c *Collector, source string, sets uint64) {
	t.Helper()
	v := c.Fleet()
	if len(v.Sources) != 1 || v.Sources[0].ID != source {
		t.Fatalf("fleet view %+v", v.Sources)
	}
	sum := v.Sources[0]
	if sum.Sets != sets || sum.AbortedSets != 0 || sum.LostMarkers+sum.LostSamples != 0 {
		t.Fatalf("sets=%d aborted=%d lost=%d+%d, want %d sets delivered whole",
			sum.Sets, sum.AbortedSets, sum.LostMarkers, sum.LostSamples, sets)
	}
}

// cutConn kills its connection at the n-th write (which carries nothing),
// the way a link dies between two frames.
type cutConn struct {
	net.Conn
	writes, cutAt int
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes >= c.cutAt {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestLoopbackResume: a connection that dies K frames into an N-frame set.
// With the collector still up the next connection resumes past everything
// it holds — no frame crosses the wire twice. With the collector re-created
// from its checkpoint, which describes set boundaries only, the same cut
// replays the open set from its first frame. Either way the report is
// byte-identical to a local Integrate.
func TestLoopbackResume(t *testing.T) {
	set1, set2 := workloadSet(t, 40), workloadSet(t, 80)
	// Writes before a data frame: Hello and SeqStart. At four records to a
	// frame set 2 is some 80 frames, so frame 50 is well inside it.
	const preamble, carried, batch = 2, 50, 4
	for _, restart := range []bool{false, true} {
		name := "collector-up"
		if restart {
			name = "collector-restored"
		}
		t.Run(name, func(t *testing.T) {
			ckpt := t.TempDir() + "/checkpoint.json"
			collReg := obs.NewRegistry()
			coll, addr := startCollector(t, Config{CheckpointPath: ckpt, Registry: collReg})

			// Connection 1 carries set 1, connection 2 dies after `carried`
			// frames of set 2, connection 3 finishes the job — once the
			// test has arranged what it finds on the other end.
			var dials atomic.Int32
			target := atomic.Value{}
			target.Store(addr)
			proceed := make(chan struct{})
			dial := func(ctx context.Context, _ string) (net.Conn, error) {
				n := dials.Add(1)
				if n == 3 {
					select {
					case <-proceed:
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				conn, err := net.Dial("tcp", target.Load().(string))
				if err == nil && n == 2 {
					conn = &cutConn{Conn: conn, cutAt: preamble + carried + 1}
				}
				return conn, err
			}
			shipReg := obs.NewRegistry()
			s, err := ship.New(ship.Config{
				Addr: "fleet", Source: "w", Dial: dial, BatchRecords: batch, QueueFrames: 1 << 13,
				BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond, Registry: shipReg,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- s.Run(ctx) }()

			if err := s.ShipSet(set1); err != nil {
				t.Fatal(err)
			}
			if err := s.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			boundary := coll.Source("w").LastAcked()
			// Set 2 rides connection 2 alone: sever connection 1 and let the
			// shipper notice before it has anything to put on it.
			coll.CloseConns()
			waitFor(t, "connection 1 to be given up", func() bool {
				return shipReg.Counter("fluct_ship_reconnects_total").Value() == 1
			})
			if err := s.ShipSet(set2); err != nil {
				t.Fatal(err)
			}
			total := s.PendingFrames()
			if total < carried+10 {
				t.Fatalf("set 2 is %d frames: frame %d is not mid-set", total, carried)
			}

			// Connection 2 is dead and the collector has applied all it carried.
			src := coll.Source("w")
			waitFor(t, "the cut connection's frames to be applied", func() bool {
				src.mu.Lock()
				defer src.mu.Unlock()
				return dials.Load() == 3 && src.wm.Applied == boundary+carried
			})
			wantRetrans := uint64(0)
			if restart {
				if err := coll.Close(); err != nil {
					t.Fatal(err)
				}
				coll, addr = startCollector(t, Config{CheckpointPath: ckpt, Registry: obs.NewRegistry()})
				target.Store(addr)
				wantRetrans = carried
			}
			close(proceed)
			if err := s.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			src = waitSets(t, coll, "w", 2, 20*time.Second)
			cancel()
			<-done

			if got := shipReg.Counter("fluct_ship_retransmitted_frames_total").Value(); got != wantRetrans {
				t.Fatalf("retransmitted %d of set 2's %d frames, want %d", got, total, wantRetrans)
			}
			assertReportEquals(t, "set 2 after the cut", src, set2)
			assertDeliveredWhole(t, coll, "w", 2)
		})
	}
}

// TestLoopbackAdmission: a shipper with no spool, its collector unreachable,
// and a queue too small for everything offered. It lets sets in whole until
// it holds more than QueueFrames frames and refuses the next one whole;
// once the collector is reachable exactly the admitted sets arrive, complete
// — a full queue costs whole sets, counted, never part of one.
func TestLoopbackAdmission(t *testing.T) {
	sets := []*trace.Set{workloadSet(t, 40), workloadSet(t, 80), workloadSet(t, 60)}
	coll, addr := startCollector(t, Config{})
	// How many frames set 1 is at this batch size: ship it into a shipper
	// that never runs.
	const batch = 16
	probe, err := ship.New(ship.Config{Addr: addr, Source: "probe", BatchRecords: batch, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.ShipSet(sets[0]); err != nil {
		t.Fatal(err)
	}
	var reachable atomic.Bool
	shipReg := obs.NewRegistry()
	s, err := ship.New(ship.Config{
		Addr: addr, Source: "w", Registry: shipReg, BatchRecords: batch,
		// Set 1 fills the queue to the line, which still admits set 2; with
		// both held the queue is past it.
		QueueFrames: int(probe.PendingFrames()),
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			if !reachable.Load() {
				return nil, net.ErrClosed
			}
			return net.Dial("tcp", addr)
		},
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	for i, set := range sets[:2] {
		if err := s.ShipSet(set); err != nil {
			t.Fatalf("set %d: %v", i+1, err)
		}
	}
	held := s.PendingFrames()
	if err := s.ShipSet(sets[2]); !errors.Is(err, ship.ErrQueueFull) {
		t.Fatalf("set 3 with %d frames held: %v, want ErrQueueFull", held, err)
	}
	if got := s.PendingFrames(); got != held {
		t.Fatalf("the refused set left %d frames behind", got-held)
	}

	reachable.Store(true)
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	src := waitSets(t, coll, "w", 2, 20*time.Second)
	cancel()
	<-done

	assertReportEquals(t, "the last admitted set", src, sets[1])
	assertDeliveredWhole(t, coll, "w", 2)
	if got := shipReg.Counter("fluct_ship_dropped_frames_total").Value(); got != 1 {
		t.Fatalf("shed count %d, want 1 (the one refused set)", got)
	}
}
