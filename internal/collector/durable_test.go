package collector

import (
	"bytes"
	"cmp"
	"errors"
	"net"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/wire"
)

// rawSetFrames encodes one trace set as a frame sequence ShipSet could
// produce: symtab, then the marker/sample runs in per-core timestamp order
// (markers before samples at equal timestamps) packed a few runs to a
// TRecords frame, then SetEnd.
func rawSetFrames(t testing.TB, set *trace.Set) []wire.Frame {
	t.Helper()
	symPayload, err := wire.AppendSymtab(nil, set.FreqHz, set.Syms)
	if err != nil {
		t.Fatal(err)
	}
	frames := []wire.Frame{{Type: wire.TSymtab, Payload: symPayload}}

	type ev struct {
		tsc    uint64
		core   int32
		marker int32
		sample int32
	}
	evs := make([]ev, 0, len(set.Markers)+len(set.Samples))
	for i := range set.Markers {
		evs = append(evs, ev{tsc: set.Markers[i].TSC, core: set.Markers[i].Core, marker: int32(i), sample: -1})
	}
	for i := range set.Samples {
		evs = append(evs, ev{tsc: set.Samples[i].TSC, core: set.Samples[i].Core, marker: -1, sample: int32(i)})
	}
	slices.SortStableFunc(evs, func(a, b ev) int {
		if c := cmp.Compare(a.core, b.core); c != 0 {
			return c
		}
		return cmp.Compare(a.tsc, b.tsc)
	})
	const runsPerFrame = 5
	var runs []any
	var markerRun []trace.Marker
	var sampleRun []pmu.Sample
	flush := func(min int) {
		if len(markerRun) > 0 {
			runs = append(runs, markerRun)
			markerRun = nil
		}
		if len(sampleRun) > 0 {
			runs = append(runs, sampleRun)
			sampleRun = nil
		}
		if len(runs) >= min {
			frames = append(frames, recordsFrame(runs...))
			runs = nil
		}
	}
	for _, e := range evs {
		if e.marker >= 0 {
			if len(sampleRun) > 0 {
				flush(runsPerFrame)
			}
			markerRun = append(markerRun, set.Markers[e.marker])
		} else {
			if len(markerRun) > 0 {
				flush(runsPerFrame)
			}
			sampleRun = append(sampleRun, set.Samples[e.sample])
		}
	}
	flush(1)
	return append(frames, wire.Frame{Type: wire.TSetEnd, Payload: wire.AppendSetEnd(nil, wire.SetEnd{
		Markers: uint64(len(set.Markers)), Samples: uint64(len(set.Samples)),
	})})
}

// TestLoopbackGrammar: the first frame after the handshake must be a
// TSeqStart. A peer that opens with data is not speaking the grammar —
// nothing it sends could be numbered, deduplicated or acknowledged — so the
// collector hangs up on it, counts it, and applies nothing.
func TestLoopbackGrammar(t *testing.T) {
	reg := obs.NewRegistry()
	coll, addr := startCollector(t, Config{Registry: reg})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := wire.ClientHandshake(conn, "legacy"); err != nil {
		t.Fatal(err)
	}
	for _, fr := range rawSetFrames(t, workloadSet(t, 40)) {
		if wire.WriteFrame(conn, fr) != nil {
			break // the collector already hung up
		}
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if n, err := conn.Read(one[:]); err == nil {
		t.Fatalf("collector answered an unnumbered frame with %d byte(s), want a hang-up", n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("collector kept a connection that opened with a data frame")
	}
	waitFor(t, "grammar error count", func() bool {
		return reg.Counter("fluct_collector_grammar_errors_total").Value() == 1
	})
	if src := coll.Source("legacy"); src.Sets() != 0 || src.Epoch() != 0 || src.SetOpen() {
		t.Fatalf("unnumbered frames reached the source: sets %d epoch %d open %v", src.Sets(), src.Epoch(), src.SetOpen())
	}
}

// TestRetiredBatchTypesDrain: the marker-only and sample-only batch frames
// of wire version 3 are gone from the grammar, and nothing special replaces
// them. A peer that tops out at version 3 is refused in the handshake; a
// set cut the old way that still reaches a sequenced connection — replayed
// from a spool the previous binary wrote — drains like any undecodable
// frame: each number consumed and counted, the set closed at its SetEnd
// with everything it declared reported lost, the SetEnd acknowledged so the
// spool can let go, and the set after it clean.
func TestRetiredBatchTypesDrain(t *testing.T) {
	reg := obs.NewRegistry()
	coll, addr := startCollector(t, Config{Registry: reg})
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		return conn
	}

	old := dial()
	hello, err := wire.AppendHello(nil, wire.Hello{MinVersion: 1, MaxVersion: 3, Source: "v3"})
	if err != nil {
		t.Fatal(err)
	}
	sendFrame(t, old, wire.Frame{Type: wire.THello, Payload: hello})
	f, err := readFrame(old)
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := wire.DecodeHelloAck(f.Payload); err != nil || ack.OK {
		t.Fatalf("a Hello topping out at version 3 was answered %+v (err %v), want a refusal", ack, err)
	}

	set := workloadSet(t, 40)
	v4 := rawSetFrames(t, set)
	v3 := []wire.Frame{
		v4[0],
		{Type: wire.TMarkers, Payload: wire.AppendMarkers(nil, set.Markers)},
		{Type: wire.TSamples, Payload: wire.AppendSamples(nil, set.Samples)},
		v4[len(v4)-1],
	}
	conn := dial()
	if _, err := wire.ClientHandshake(conn, "w"); err != nil {
		t.Fatal(err)
	}
	awaitAck := func(seq uint64) {
		t.Helper()
		for {
			f, err := readFrame(conn)
			if err != nil {
				t.Fatalf("waiting for the ack of frame %d: %v", seq, err)
			}
			if a, err := wire.DecodeAck(f.Payload); f.Type == wire.TAck && err == nil && a.Seq == seq {
				return
			}
		}
	}
	shipV2Set(t, conn, v3, 5, 1)
	awaitAck(uint64(len(v3)))
	for _, fr := range v4 {
		sendFrame(t, conn, fr)
	}
	awaitAck(uint64(len(v3) + len(v4)))

	src := coll.Source("w")
	assertReportEquals(t, "the set after the retired-type one", src, set)
	sum := coll.Fleet().Sources[0]
	if sum.Sets != 2 || sum.AbortedSets != 0 || sum.CRCErrors != 2 ||
		sum.LostMarkers != uint64(len(set.Markers)) || sum.LostSamples != uint64(len(set.Samples)) {
		t.Fatalf("sets=%d aborted=%d undecodable=%d lost=%d+%d, want 2 sets, none aborted, 2 frames undecodable, the first set's %d+%d lost",
			sum.Sets, sum.AbortedSets, sum.CRCErrors, sum.LostMarkers, sum.LostSamples, len(set.Markers), len(set.Samples))
	}
	if got := reg.Counter("fluct_collector_crc_errors_total").Value(); got != 2 {
		t.Fatalf("counted %d undecodable frames, want 2", got)
	}
}

// TestSeqStartResync: a shipper resuming past the collector's watermark
// (the collector lost unreplayable state) must resync forward instead of
// wedging, and duplicate frames below the watermark must be skipped.
func TestSeqStartResync(t *testing.T) {
	reg := obs.NewRegistry()
	coll, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	src := coll.source("s")
	st := &sourceStream{c: coll, src: src}

	// First contact at epoch 9, resuming from seq 41.
	if acked, resume, _ := st.Start(wire.SeqStart{Epoch: 9, FirstSeq: 41}); acked != 40 || resume != 40 {
		t.Fatalf("advertised %d/%d, want 40/40 (resynced to FirstSeq-1)", acked, resume)
	}
	if src.Epoch() != 9 || src.LastAcked() != 40 {
		t.Fatalf("state epoch=%d lastAcked=%d, want 9/40", src.Epoch(), src.LastAcked())
	}

	// Same epoch, overlap replay: watermark must not move backward.
	if acked, _, _ := st.Start(wire.SeqStart{Epoch: 9, FirstSeq: 30}); acked != 40 {
		t.Fatalf("advertised watermark %d after overlap replay, want 40", acked)
	}

	// New epoch: the numbering resets.
	if acked, resume, _ := st.Start(wire.SeqStart{Epoch: 10, FirstSeq: 1}); acked != 0 || resume != 0 || src.Epoch() != 10 {
		t.Fatalf("advertised %d/%d at epoch %d after epoch change, want zero lines at 10", acked, resume, src.Epoch())
	}
}

// TestCheckpointRoundTrip: Checkpoint → New must reproduce the fleet view
// and the acked-delivery watermarks bit-for-bit at the rendered-report
// level, with the symbol table rebuilt on the same deterministic bases.
func TestCheckpointRoundTrip(t *testing.T) {
	set := workloadSet(t, 40)
	path := t.TempDir() + "/checkpoint.json"
	a, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	src := a.source("w1")
	src.mu.Lock()
	src.everConnected = true
	src.mu.Unlock()
	for _, fr := range rawSetFrames(t, set) {
		if err := a.frame(src, fr); err != nil {
			t.Fatal(err)
		}
	}
	src.mu.Lock()
	src.wm = durable.Restored(77, 5)
	src.mu.Unlock()
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	b, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	rsrc := b.Source("w1")
	if rsrc == nil {
		t.Fatal("source not restored")
	}
	if rsrc.Epoch() != 77 || rsrc.LastAcked() != 5 || rsrc.Sets() != 1 {
		t.Fatalf("restored epoch=%d lastAcked=%d sets=%d, want 77/5/1",
			rsrc.Epoch(), rsrc.LastAcked(), rsrc.Sets())
	}
	var before, after bytes.Buffer
	RenderItems(&before, src.FreqHz(), src.Items())
	RenderItems(&after, rsrc.FreqHz(), rsrc.Items())
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("restored items differ: %s", firstDiff(after.String(), before.String()))
	}
	// The rebuilt symbol table must land on identical deterministic bases.
	rsrc.mu.Lock()
	fns, rfns := src.syms.Fns(), rsrc.syms.Fns()
	rsrc.mu.Unlock()
	if len(fns) != len(rfns) {
		t.Fatalf("symbols %d vs %d", len(fns), len(rfns))
	}
	for i := range fns {
		if fns[i].Name != rfns[i].Name || fns[i].Base != rfns[i].Base || fns[i].Size != rfns[i].Size {
			t.Fatalf("symbol %d: %+v vs %+v", i, fns[i], rfns[i])
		}
	}
	// The fleet views agree.
	av, bv := a.Fleet(), b.Fleet()
	if len(bv.Sources) != 1 || bv.Sources[0] != av.Sources[0] {
		t.Fatalf("fleet summary drifted: %+v vs %+v", av.Sources, bv.Sources)
	}
}

// TestCheckpointDeterministic: the collector's sources live in a map, and
// checkpointing one state twice must still write the same bytes.
func TestCheckpointDeterministic(t *testing.T) {
	set := workloadSet(t, 40)
	path := t.TempDir() + "/checkpoint.json"
	c, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []string{"w1", "w2", "w3", "w4", "w5"} {
		src := c.source(id)
		src.mu.Lock()
		src.everConnected = true
		src.mu.Unlock()
		if i%2 == 0 {
			for _, fr := range rawSetFrames(t, set) {
				if err := c.frame(src, fr); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var first []byte
	for i := 0; i < 10; i++ {
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(data, first) {
			t.Fatalf("checkpoint %d of one state differs: %s", i, firstDiff(string(data), string(first)))
		}
	}
}

// TestCheckpointStagedAck: a checkpoint must record the settled watermark
// — the sequence number its accounting reflects — durably in the file
// while leaving the acknowledged watermark in memory untouched: committing
// it is the acking connection's job, and only after the checkpoint
// succeeded. A settle from a stale epoch must not land.
func TestCheckpointStagedAck(t *testing.T) {
	set := workloadSet(t, 40)
	path := t.TempDir() + "/checkpoint.json"
	a, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	src := a.source("w1")
	for _, fr := range rawSetFrames(t, set) {
		if err := a.frame(src, fr); err != nil {
			t.Fatal(err)
		}
	}
	src.mu.Lock()
	src.wm = durable.Watermark{Epoch: 7, Applied: 9, Settled: 4, Acked: 4}
	src.wm.Settle(7, 9)
	src.mu.Unlock()

	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if src.LastAcked() != 4 {
		t.Fatalf("checkpoint committed the settled watermark to memory: lastAcked %d, want 4", src.LastAcked())
	}
	b, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Source("w1").LastAcked(); got != 9 {
		t.Fatalf("restored settled watermark %d, want 9", got)
	}

	// Stale epoch: the seq belongs to a generation the source left.
	src.mu.Lock()
	src.wm.Settle(6, 30)
	src.mu.Unlock()
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c2, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Source("w1").LastAcked(); got != 9 {
		t.Fatalf("stale-epoch settle landed: watermark %d, want 9", got)
	}
}

// shipV2Set hand-rolls a v2 shipper turn on conn: SeqStart at (epoch,
// firstSeq), then the set's frames. Returns the watermark advertised in
// the SeqStart reply ack.
func shipV2Set(t testing.TB, conn net.Conn, frames []wire.Frame, epoch, firstSeq uint64) uint64 {
	t.Helper()
	payload := wire.AppendSeqStart(nil, wire.SeqStart{Epoch: epoch, FirstSeq: firstSeq})
	if err := wire.WriteFrame(conn, wire.Frame{Type: wire.TSeqStart, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	f, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.TAck {
		t.Fatalf("SeqStart reply type %s, want ack", f.Type)
	}
	a, err := wire.DecodeAck(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames {
		if err := wire.WriteFrame(conn, fr); err != nil {
			t.Fatal(err)
		}
	}
	return a.Seq
}

// TestCheckpointFailureWithholdsAck: when the checkpoint write fails, the
// SetEnd ack must be withheld AND the in-memory watermark must not move —
// otherwise a reconnect's SeqStart reply would advertise an un-persisted
// watermark and the shipper would reclaim spool segments a collector crash
// could still lose. Once the disk heals, a retransmission of the same set
// must be deduplicated (not double-integrated) yet still re-run the
// checkpoint and deliver the ack.
func TestCheckpointFailureWithholdsAck(t *testing.T) {
	set := workloadSet(t, 40)
	frames := rawSetFrames(t, set)
	reg := obs.NewRegistry()
	ckptDir := t.TempDir() + "/sub" // deliberately absent: checkpoints fail
	coll, addr := startCollector(t, Config{Registry: reg, CheckpointPath: ckptDir + "/checkpoint.json"})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := wire.ClientHandshake(conn, "w1"); err != nil {
		t.Fatal(err)
	}
	if got := shipV2Set(t, conn, frames, 5, 1); got != 0 {
		t.Fatalf("fresh source advertised watermark %d, want 0", got)
	}

	src := waitSets(t, coll, "w1", 1, 10*time.Second)
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("fluct_collector_checkpoint_errors_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("checkpoint failure never counted")
		}
		time.Sleep(time.Millisecond)
	}
	if got := src.LastAcked(); got != 0 {
		t.Fatalf("watermark advanced to %d despite checkpoint failure, want 0", got)
	}
	_ = conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if f, err := readFrame(conn); err == nil {
		t.Fatalf("got a %s frame after a failed checkpoint; the ack must be withheld", f.Type)
	} else if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("expected a read timeout (withheld ack), got %v", err)
	}
	_ = conn.SetReadDeadline(time.Time{})

	// Heal the disk, then retransmit the whole set — what a shipper that
	// never saw its ack does after reconnecting.
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if got := shipV2Set(t, conn, frames, 5, 1); got != 0 {
		t.Fatalf("reconnect advertised un-checkpointed watermark %d, want 0", got)
	}
	f, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	a, err := wire.DecodeAck(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(frames)); a.Seq != want || a.Epoch != 5 {
		t.Fatalf("post-heal ack %+v, want epoch 5 seq %d", a, want)
	}
	if got := src.LastAcked(); got != uint64(len(frames)) {
		t.Fatalf("committed watermark %d, want %d", got, len(frames))
	}
	if got := src.Sets(); got != 1 {
		t.Fatalf("retransmission double-integrated: %d sets, want 1", got)
	}
	if reg.Counter("fluct_collector_duplicate_frames_total").Value() == 0 {
		t.Fatal("retransmitted frames were not counted as duplicates")
	}
}

// TestStaleEpochConnRejected: once a newer spool generation opens for a
// source, a lingering connection from the old generation must be dropped —
// its sequence numbers would otherwise race the new generation's dedup
// watermark and could regress it.
func TestStaleEpochConnRejected(t *testing.T) {
	set := workloadSet(t, 40)
	frames := rawSetFrames(t, set)
	coll, addr := startCollector(t, Config{Registry: obs.NewRegistry()})

	dial := func() net.Conn {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ClientHandshake(conn, "w1"); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	oldConn := dial()
	defer oldConn.Close()
	// Old generation ships its symtab, then stalls.
	shipV2Set(t, oldConn, frames[:1], 1, 1)

	newConn := dial()
	defer newConn.Close()
	shipV2Set(t, newConn, frames, 2, 1)

	// The old connection wakes up and ships another frame; the collector
	// must hang up rather than apply it against the new generation.
	if err := wire.WriteFrame(oldConn, frames[1]); err == nil {
		_ = oldConn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := readFrame(oldConn); err == nil {
			t.Fatal("stale-epoch connection got a frame back, want disconnect")
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("stale-epoch connection was never disconnected")
		}
	}

	// The watermark commits after the set's checkpoint, just before the
	// TAck is written; the TAck is what orders the two, so read it before
	// asserting on LastAcked.
	f, err := readFrame(newConn)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := wire.DecodeAck(f.Payload); err != nil || f.Type != wire.TAck ||
		a != (wire.Ack{Epoch: 2, Seq: uint64(len(frames)), Applied: uint64(len(frames))}) {
		t.Fatalf("new generation got %s %+v (err %v), want ack epoch 2 seq %d", f.Type, a, err, len(frames))
	}
	src := coll.Source("w1")
	if got := src.Epoch(); got != 2 {
		t.Fatalf("source epoch %d, want 2", got)
	}
	if got := src.LastAcked(); got != uint64(len(frames)) {
		t.Fatalf("new generation watermark %d, want %d", got, len(frames))
	}
}

// TestSnapshotBeforeAckCommit: a checkpoint taken after a set is applied
// but before its ack commits — another source's per-set checkpoint, the
// periodic timer, Close's final one — must hold the set's accounting AND
// its watermark, or neither. Here the set's own checkpoint fails (ack
// withheld, nothing committed), the disk heals, and a bystander checkpoint
// lands; a collector restored from it must see the shipper's replay of the
// set as duplicates, not count the set twice.
func TestSnapshotBeforeAckCommit(t *testing.T) {
	frames := rawSetFrames(t, workloadSet(t, 40))
	reg := obs.NewRegistry()
	ckptDir := t.TempDir() + "/sub" // deliberately absent: checkpoints fail
	path := ckptDir + "/checkpoint.json"
	coll, addr := startCollector(t, Config{Registry: reg, CheckpointPath: path})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := wire.ClientHandshake(conn, "w1"); err != nil {
		t.Fatal(err)
	}
	shipV2Set(t, conn, frames, 5, 1)
	waitSets(t, coll, "w1", 1, 10*time.Second)
	waitFor(t, "failed checkpoint", func() bool {
		return reg.Counter("fluct_collector_checkpoint_errors_total").Value() > 0
	})
	if got := coll.Source("w1").LastAcked(); got != 0 {
		t.Fatalf("watermark committed to %d despite the failed checkpoint", got)
	}
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := coll.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	restored, addr2 := startCollector(t, Config{Registry: obs.NewRegistry(), CheckpointPath: path})
	conn2, err := net.Dial("tcp", addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := wire.ClientHandshake(conn2, "w1"); err != nil {
		t.Fatal(err)
	}
	// The shipper never saw an ack, so it replays the whole set.
	if got := shipV2Set(t, conn2, frames, 5, 1); got != uint64(len(frames)) {
		t.Fatalf("restored collector advertised watermark %d, want %d: the snapshot lost the set's watermark", got, len(frames))
	}
	f, err := readFrame(conn2)
	if err != nil {
		t.Fatal(err)
	}
	if a, err := wire.DecodeAck(f.Payload); err != nil || a.Seq != uint64(len(frames)) {
		t.Fatalf("replayed SetEnd ack %+v, err %v", a, err)
	}
	if got := restored.Source("w1").Sets(); got != 1 {
		t.Fatalf("restore + replay counted %d sets, want 1", got)
	}
}

// TestCheckpointWaitsForSummaryTap: a set's accounting and watermark settle
// before OnSummary hands its summary to the uplink. A checkpoint landing in
// between would, after a crash, acknowledge the shipper's replay of the set
// as duplicates without ever emitting its summary — so the snapshot waits
// for the apply mutex the tap runs under.
func TestCheckpointWaitsForSummaryTap(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	c, err := New(Config{
		CheckpointPath: t.TempDir() + "/checkpoint.json", Registry: obs.NewRegistry(),
		OnSummary: func(wire.FleetSummary) { close(entered); <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	src := c.source("w1")
	frames := rawSetFrames(t, workloadSet(t, 40))
	fed := make(chan error, 1)
	go func() {
		for _, fr := range frames {
			if err := c.frame(src, fr); err != nil {
				fed <- err
				return
			}
		}
		fed <- nil
	}()
	<-entered
	done := make(chan error, 1)
	go func() { done <- c.Checkpoint() }()
	select {
	case err := <-done:
		t.Fatalf("checkpoint (err %v) did not wait for the summary tap", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-fed; err != nil {
		t.Fatal(err)
	}
}

// TestRestoreParentCheckpoint: a version-1 checkpoint file (testdata
// captured from a parent commit, items as JSON) restores, and a restored
// collector's own checkpoint — now version 2 — restores to the same fleet
// view, watermarks and items.
func TestRestoreParentCheckpoint(t *testing.T) {
	fixture, err := os.ReadFile("testdata/parent_checkpoint.json")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/checkpoint.json"
	if err := os.WriteFile(path, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	src := c.Source("w1")
	if src == nil || src.Epoch() != 77 || src.LastAcked() != 5 || src.Sets() != 1 {
		t.Fatalf("restored %+v", src)
	}
	local, err := core.Integrate(workloadSet(t, 40), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	RenderItems(&got, src.FreqHz(), src.Items())
	RenderItems(&want, local.FreqHz, local.Items)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("restored items differ from local Integrate: %s", firstDiff(got.String(), want.String()))
	}

	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	again, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if d := restoredDiff(c, again); d != "" {
		t.Fatalf("version-1 restore re-checkpointed and restored again: %s", d)
	}
}
