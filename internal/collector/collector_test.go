package collector

import (
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/wire"
)

// pipeSource connects an in-memory shipper-side conn to the collector,
// completes the handshake and opens the numbering at (epoch 1, seq 1).
// Whatever the collector sends back afterwards is read and discarded, so
// its acks never block on the unbuffered pipe.
func pipeSource(t *testing.T, c *Collector, source string) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	go c.HandleConn(server)
	if _, err := wire.ClientHandshake(client, source); err != nil {
		t.Fatal(err)
	}
	shipV2Set(t, client, nil, 1, 1)
	go io.Copy(io.Discard, client)
	return client
}

func sendFrame(t *testing.T, conn net.Conn, f wire.Frame) {
	t.Helper()
	if err := wire.WriteFrame(conn, f); err != nil {
		t.Fatal(err)
	}
}

// readFrame reads one frame off conn into a plain allocation; the reader
// takes exactly the frame's bytes, so calls may alternate with any other.
func readFrame(conn io.Reader) (wire.FrameView, error) {
	return (*wire.FramePool)(nil).NewReader(conn).Next()
}

// frame applies one frame to the source's state, synchronously, under the
// source's apply mutex like connection ingest.
func (c *Collector) frame(src *Source, f wire.Frame) error {
	src.applyMu.Lock()
	defer src.applyMu.Unlock()
	_, err := c.apply(src, &durable.Frame{FrameView: wire.FrameView{Type: f.Type, Payload: f.Payload}})
	return err
}

// recordsFrame builds one TRecords frame out of runs given in feed order —
// each a []trace.Marker or a []pmu.Sample — with the ΔTSC chain carried
// from run to run, as ShipSet builds it. Every raw-frame feed in this
// package's tests goes through it.
func recordsFrame(runs ...any) wire.Frame {
	var p []byte
	var base uint64
	for _, run := range runs {
		switch run := run.(type) {
		case []trace.Marker:
			p, base = wire.AppendMarkerRun(p, base, run), run[len(run)-1].TSC
		case []pmu.Sample:
			p, base = wire.AppendSampleRun(p, base, run), run[len(run)-1].TSC
		}
	}
	return wire.Frame{Type: wire.TRecords, Payload: p}
}

// miniSet sends one tiny complete set over conn: one item on core 0 with
// the given elapsed cycles.
func miniSet(t *testing.T, conn net.Conn, elapsed uint64) {
	t.Helper()
	tab := symtab.NewTable()
	tab.MustRegister("f", 256)
	sym, err := wire.AppendSymtab(nil, 1_000_000_000, tab)
	if err != nil {
		t.Fatal(err)
	}
	sendFrame(t, conn, wire.Frame{Type: wire.TSymtab, Payload: sym})
	ms := []trace.Marker{
		{Item: 1, TSC: 1000, Core: 0, Kind: trace.ItemBegin},
		{Item: 1, TSC: 1000 + elapsed, Core: 0, Kind: trace.ItemEnd},
	}
	sendFrame(t, conn, recordsFrame(ms))
	sendFrame(t, conn, wire.Frame{Type: wire.TSetEnd, Payload: wire.AppendSetEnd(nil, wire.SetEnd{Markers: 2})})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetTopK: items from several sources merge into one slowest-first
// list with source tags, cross-host comparable in microseconds.
func TestFleetTopK(t *testing.T) {
	c, err := New(Config{TopK: 2, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range []struct {
		source  string
		elapsed uint64
	}{{"host-a", 500}, {"host-b", 9000}, {"host-c", 3000}} {
		conn := pipeSource(t, c, spec.source)
		miniSet(t, conn, spec.elapsed)
		conn.Close()
		_ = i
	}
	waitFor(t, "three sets", func() bool {
		n := 0
		for _, id := range []string{"host-a", "host-b", "host-c"} {
			if s := c.Source(id); s != nil && s.Sets() == 1 {
				n++
			}
		}
		return n == 3
	})
	v := c.Fleet()
	if len(v.Sources) != 3 {
		t.Fatalf("fleet has %d sources", len(v.Sources))
	}
	if len(v.TopSlow) != 2 {
		t.Fatalf("top-K returned %d items, want 2", len(v.TopSlow))
	}
	if v.TopSlow[0].Source != "host-b" || v.TopSlow[1].Source != "host-c" {
		t.Fatalf("top slow order: %s then %s", v.TopSlow[0].Source, v.TopSlow[1].Source)
	}
	if v.TopSlow[0].ElapsedUs <= v.TopSlow[1].ElapsedUs {
		t.Fatalf("not slowest-first: %v", v.TopSlow)
	}
	h := c.Health()
	if !h.OK {
		t.Fatalf("clean fleet reports %+v", h)
	}
}

// TestProtocolErrorsTolerated: a source that sends records before its
// symtab is counted, not crashed, and the connection survives for the
// retry.
func TestProtocolErrorsTolerated(t *testing.T) {
	c, err := New(Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	conn := pipeSource(t, c, "confused")
	ms := []trace.Marker{{Item: 1, TSC: 10, Kind: trace.ItemBegin}}
	sendFrame(t, conn, recordsFrame(ms))
	// The same connection then ships a correct set — it must land.
	miniSet(t, conn, 100)
	waitFor(t, "recovered set", func() bool {
		s := c.Source("confused")
		return s != nil && s.Sets() == 1
	})
	src := c.Source("confused")
	src.mu.Lock()
	crc := src.crcErrors
	src.mu.Unlock()
	if crc == 0 {
		t.Fatal("out-of-order frame was not counted")
	}
	conn.Close()
}

// TestSymtabMidSetFinalizesPrevious: a shipper restart (new symtab while a
// set is open) finalizes the half-delivered set as aborted instead of
// wedging or leaking the integrator.
func TestSymtabMidSetFinalizesPrevious(t *testing.T) {
	c, err := New(Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	conn := pipeSource(t, c, "restarter")
	tab := symtab.NewTable()
	tab.MustRegister("f", 256)
	sym, err := wire.AppendSymtab(nil, 1_000_000_000, tab)
	if err != nil {
		t.Fatal(err)
	}
	sendFrame(t, conn, wire.Frame{Type: wire.TSymtab, Payload: sym})
	ms := []trace.Marker{{Item: 5, TSC: 100, Core: 0, Kind: trace.ItemBegin}} // open item, no end
	sendFrame(t, conn, recordsFrame(ms))
	// Restart: fresh symtab, then a clean set.
	miniSet(t, conn, 200)
	waitFor(t, "post-restart set", func() bool {
		s := c.Source("restarter")
		return s != nil && s.Sets() == 2 // aborted set finalizes as a set too
	})
	src := c.Source("restarter")
	src.mu.Lock()
	aborted := src.abortedSets
	src.mu.Unlock()
	if aborted != 1 {
		t.Fatalf("aborted sets = %d, want 1", aborted)
	}
	conn.Close()
}

// TestHealthDegradedOnTransportLoss: a SetEnd declaring more records than
// arrived flips the source and the fleet /healthz verdict to degraded.
func TestHealthDegradedOnTransportLoss(t *testing.T) {
	c, err := New(Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	conn := pipeSource(t, c, "lossy")
	tab := symtab.NewTable()
	tab.MustRegister("f", 256)
	sym, err := wire.AppendSymtab(nil, 1_000_000_000, tab)
	if err != nil {
		t.Fatal(err)
	}
	sendFrame(t, conn, wire.Frame{Type: wire.TSymtab, Payload: sym})
	ms := []trace.Marker{
		{Item: 1, TSC: 10, Core: 0, Kind: trace.ItemBegin},
		{Item: 1, TSC: 90, Core: 0, Kind: trace.ItemEnd},
	}
	sendFrame(t, conn, recordsFrame(ms))
	// Declare 4 markers: two never made it.
	sendFrame(t, conn, wire.Frame{Type: wire.TSetEnd, Payload: wire.AppendSetEnd(nil, wire.SetEnd{Markers: 4})})
	waitFor(t, "lossy set", func() bool {
		s := c.Source("lossy")
		return s != nil && s.Sets() == 1
	})
	h := c.Health()
	if h.OK {
		t.Fatalf("transport loss not reflected in health: %+v", h)
	}
	if !strings.Contains(h.Detail, "degraded") {
		t.Fatalf("detail %q", h.Detail)
	}
	conn.Close()
}

// TestIngestRetainsNoRecords: a warmed source ingests a set without keeping
// its records — everything the second set's ingest allocates (items, funcs,
// summary, bookkeeping) stays below what holding just its samples would
// cost. The per-set trace.Set this replaced allocated ≈ 4× that bound on
// its own, growing by append.
func TestIngestRetainsNoRecords(t *testing.T) {
	set := workloadSet(t, 2000)
	frames := rawSetFrames(t, set)
	c, err := New(Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src := c.source("w1")
	feed := func() {
		for _, fr := range frames {
			if err := c.frame(src, fr); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed() // warm: scan buffers, item slices, integrator maps
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feed()
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	bound := uint64(len(set.Samples)) * uint64(unsafe.Sizeof(pmu.Sample{}))
	t.Logf("second set: %d frames, %d samples, allocated %d bytes (bound %d)", len(frames), len(set.Samples), alloc, bound)
	if alloc >= bound {
		t.Errorf("ingesting a %d-sample set allocated %d bytes, want < %d", len(set.Samples), alloc, bound)
	}
	if src.Sets() != 2 || len(src.Items()) != 2000 {
		t.Fatalf("ingested %d sets, last with %d items", src.Sets(), len(src.Items()))
	}
}

// TestSlowApplyBackpressures: a connection reads its next frame only once
// the last one's apply has returned, so a stalled apply holds the sender
// back through the link instead of parking its frames in memory. Set 1 is
// left open (the shipper restarted mid-set); set 2's symtab aborts it, and
// the summary tap holds that apply. Nothing more of set 2 may be read until
// the tap returns — then all of it lands.
func TestSlowApplyBackpressures(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	defer free()
	c, err := New(Config{Registry: obs.NewRegistry(), OnSummary: func(fs wire.FleetSummary) {
		if fs.AbortedSets == 1 && fs.Sets == 1 {
			close(entered)
			<-release
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	go c.HandleConn(server)
	if _, err := wire.ClientHandshake(client, "w"); err != nil {
		t.Fatal(err)
	}
	set1 := rawSetFrames(t, workloadSet(t, 40))
	shipV2Set(t, client, set1[:len(set1)-1], 1, 1)
	go io.Copy(io.Discard, client)

	set2 := workloadSet(t, 80)
	frames2 := rawSetFrames(t, set2)
	sendFrame(t, client, frames2[0])
	<-entered
	_ = client.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
	read := 0
	for _, f := range frames2[1:] {
		err := wire.WriteFrame(client, f)
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		read++
	}
	if read > 0 {
		t.Fatalf("the collector read %d of set 2's %d frames while the apply before them was held", read, len(frames2)-1)
	}

	free()
	_ = client.SetWriteDeadline(time.Time{})
	for _, f := range frames2[1:] {
		sendFrame(t, client, f)
	}
	src := waitSets(t, c, "w", 2, 10*time.Second)
	assertReportEquals(t, "set 2 after the held apply", src, set2)
}
