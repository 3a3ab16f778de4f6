package collector

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/ship"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestCrashRecoveryEquivalence is the durability acceptance bar: crash the
// collector mid-set (its connection partitioned mid-frame, the process
// replaced by a new one restored from the checkpoint), crash the shipper
// hard enough to leave a torn spool segment, restart both — and the
// integrated reports must be byte-identical to uninterrupted local
// Integrate passes, with the set count exact (nothing lost, nothing
// double-integrated).
func TestCrashRecoveryEquivalence(t *testing.T) {
	set1 := workloadSet(t, 40)
	set2 := workloadSet(t, 80)
	set3 := workloadSet(t, 60)

	ckpt := filepath.Join(t.TempDir(), "checkpoint.json")
	spoolDir := t.TempDir()

	// Collector incarnation A.
	collA, err := New(Config{CheckpointPath: ckpt, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	lA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go collA.Serve(lA)

	// Dial plumbing: connection #1 is clean (set 1), connection #2 is
	// partitioned after a small byte budget so it dies mid-set-2 with a
	// torn frame on the collector side, later connections go to whatever
	// incarnation currentAddr points at (empty: everything is down).
	var currentAddr atomic.Value
	currentAddr.Store(lA.Addr().String())
	var dials atomic.Int32
	base := func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	cutDial := faults.WrapDial(faults.NetPlan{
		Mode: faults.NetPartition, PartitionAfterBytes: 1500, Seed: 1,
	}, base)
	addrA := lA.Addr().String()
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		target := currentAddr.Load().(string)
		if target == "" {
			return nil, net.ErrClosed
		}
		switch n := dials.Add(1); {
		case n == 2:
			return cutDial(target)
		case n >= 3 && target == addrA:
			// Incarnation A dies with the cut connection; redials reach
			// nothing until B is up.
			return nil, net.ErrClosed
		}
		return base(target)
	}

	// Shipper incarnation 1.
	s1, err := ship.New(ship.Config{
		Addr: "fleet", Source: "w", Dial: dial, SpoolDir: spoolDir,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithTimeout(context.Background(), 60*time.Second)
	done1 := make(chan error, 1)
	go func() { done1 <- s1.Run(ctx1) }()

	// Phase 1: set 1 ships and is acked end to end.
	if err := s1.ShipSet(set1); err != nil {
		t.Fatal(err)
	}
	waitSets(t, collA, "w", 1, 20*time.Second)
	drainCtx, dc := context.WithTimeout(context.Background(), 20*time.Second)
	if err := s1.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	dc()

	// Phase 2: sever the healthy connection so set 2 rides the
	// partitioned one, which dies mid-frame after ~1500 bytes — the
	// collector keeps a partial set it can never finish.
	collA.CloseConns()
	if err := s1.ShipSet(set2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for dials.Load() < 3 { // the cut connection died and the shipper is retrying
		if time.Now().After(deadline) {
			t.Fatal("partitioned connection never died")
		}
		time.Sleep(time.Millisecond)
	}
	// Kill collector A with set 2 in flight: listener gone, conns gone,
	// process state abandoned. Its checkpoint still describes set 1.
	currentAddr.Store("")
	lA.Close()
	collA.CloseConns()
	if got := collA.Source("w").Sets(); got != 1 {
		t.Fatalf("collector A finished %d sets, want 1 (set 2 must be mid-flight)", got)
	}

	// Kill shipper 1 and tear its spool: stop the process, then simulate
	// the crash landing mid-append by leaving a truncated frame at the
	// tail of the newest segment.
	cancel1()
	<-done1
	tearNewestSegment(t, spoolDir)

	// Phase 3: both sides restart. The collector restores the checkpoint;
	// the shipper recovers the spool (truncating the torn tail) and
	// retransmits everything past the acked watermark — all of set 2.
	collB, err := New(Config{CheckpointPath: ckpt, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lB.Close() })
	go collB.Serve(lB)

	s2, err := ship.New(ship.Config{
		Addr: "fleet", Source: "w", Dial: dial, SpoolDir: spoolDir,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Recovery().TornErr == nil {
		t.Fatal("spool recovery saw no torn tail — the crash simulation did nothing")
	}
	if s2.Epoch() != s1.Epoch() {
		t.Fatalf("spool epoch changed across restart: %d → %d", s1.Epoch(), s2.Epoch())
	}
	if got := s2.PendingFrames(); got == 0 {
		t.Fatal("no frames pending after restart — set 2 was lost")
	}
	currentAddr.Store(lB.Addr().String())

	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	done2 := make(chan error, 1)
	go func() { done2 <- s2.Run(ctx2) }()

	src := waitSets(t, collB, "w", 2, 20*time.Second)
	assertReportEquals(t, "set 2 after crash recovery", src, set2)

	// Phase 4: steady state continues — set 3 ships normally.
	if err := s2.ShipSet(set3); err != nil {
		t.Fatal(err)
	}
	drainCtx, dc = context.WithTimeout(context.Background(), 20*time.Second)
	if err := s2.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	dc()
	src = waitSets(t, collB, "w", 3, 20*time.Second)
	cancel2()
	<-done2
	assertReportEquals(t, "set 3 in steady state", src, set3)

	// Exactness: three sets total (set 1 restored, never re-integrated),
	// nothing aborted, nothing lost.
	if got := src.Sets(); got != 3 {
		t.Fatalf("collector B finished %d sets, want exactly 3", got)
	}
	v := collB.Fleet()
	if len(v.Sources) != 1 {
		t.Fatalf("fleet has %d sources, want 1", len(v.Sources))
	}
	sum := v.Sources[0]
	if sum.AbortedSets != 0 || sum.LostMarkers != 0 || sum.LostSamples != 0 {
		t.Fatalf("recovery left damage: aborted=%d lost=%d+%d",
			sum.AbortedSets, sum.LostMarkers, sum.LostSamples)
	}
}

// TestCheckpointRestartKeepsFleetView: a daemon bounce with no shipper
// activity at all must come back with /fleet populated from the
// checkpoint.
func TestCheckpointRestartKeepsFleetView(t *testing.T) {
	set := workloadSet(t, 40)
	ckpt := filepath.Join(t.TempDir(), "checkpoint.json")

	collA, addrA := startCollector(t, Config{CheckpointPath: ckpt})
	s, err := ship.New(ship.Config{
		Addr: addrA, Source: "w", SpoolDir: t.TempDir(),
		BackoffMin: time.Millisecond, Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	if err := s.ShipSet(set); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	waitSets(t, collA, "w", 1, 20*time.Second)
	cancel()
	<-done

	collB, err := New(Config{CheckpointPath: ckpt, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	src := collB.Source("w")
	if src == nil || src.Sets() != 1 {
		t.Fatalf("restarted collector lost the fleet view: %+v", collB.Fleet().Sources)
	}
	if src.LastAcked() == 0 || src.LastAcked() != collA.Source("w").LastAcked() {
		t.Fatalf("acked watermark not restored: %d vs %d",
			src.LastAcked(), collA.Source("w").LastAcked())
	}
	assertReportEquals(t, "restored fleet view", src, set)
}

// assertReportEquals pins the collector's rendering of the source's last
// completed set against an uninterrupted local core.Integrate of want.
func assertReportEquals(t *testing.T, label string, src *Source, want *trace.Set) {
	t.Helper()
	local, err := core.Integrate(want, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got, exp bytes.Buffer
	RenderItems(&got, src.FreqHz(), src.Items())
	RenderItems(&exp, local.FreqHz, local.Items)
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("%s: collector report differs from uninterrupted local Integrate: %s",
			label, firstDiff(got.String(), exp.String()))
	}
}

// tearNewestSegment appends the first bytes of a valid frame — and nothing
// more — to the newest spool segment, the on-disk shape of a process
// killed mid-append.
func tearNewestSegment(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no spool segments to tear (err %v)", err)
	}
	sort.Strings(segs)
	newest := segs[len(segs)-1]
	frame := wire.AppendFrame(nil, wire.Frame{Type: wire.TSetEnd, Payload: wire.AppendSetEnd(nil, wire.SetEnd{Markers: 1})})
	f, err := os.OpenFile(newest, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:5]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
