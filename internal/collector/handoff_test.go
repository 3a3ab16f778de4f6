package collector

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestImportParentHandoff: a version-1 THandoffSource payload, its items
// as JSON, imports with the items it was written from, and they survive a
// checkpoint and a restart.
func TestImportParentHandoff(t *testing.T) {
	payload := readFile(t, "../wire/testdata/handoff_source.golden")
	written, err := wire.DecodeHandoffSource(payload)
	if err != nil {
		t.Fatal(err)
	}
	core.SortItems(written.Items)
	var want bytes.Buffer
	RenderItems(&want, written.FreqHz, written.Items)
	check := func(t *testing.T, c *Collector) {
		t.Helper()
		src := c.Source(written.Source)
		if src == nil || src.Sets() != written.Sets || src.LastAcked() != written.LastAcked {
			t.Fatalf("imported %+v", src)
		}
		var got bytes.Buffer
		RenderItems(&got, src.FreqHz(), src.Items())
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("imported items differ from the payload's: %s", firstDiff(got.String(), want.String()))
		}
	}

	c, err := New(Config{CheckpointPath: t.TempDir() + "/checkpoint.json", Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if ack, err := importPayload(c, payload); err != nil || ack.Disposition != wire.HandoffInstalled {
		t.Fatalf("import: %v, %v; want installed", ack.Disposition, err)
	}
	check(t, c)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	again, err := New(Config{CheckpointPath: c.cfg.CheckpointPath, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	check(t, again)
}

// TestImportRejectsBadRow: a THandoffSource whose payload names another
// source fails as a frame that did not apply. Its target is never
// created, the drainer is told no disposition for it (not on the import,
// not on a replay), and the handoff's other sources still install.
func TestImportRejectsBadRow(t *testing.T) {
	from, err := New(Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	set := workloadSet(t, 8)
	feedSet(t, from, "w1", set)
	feedSet(t, from, "w2", set)
	good := exportPayload(t, from, "w2")
	hs, err := wire.DecodeHandoffSource(good)
	if err != nil {
		t.Fatal(err)
	}
	hs.Source = "w1" // the payload still names w2
	bad, err := wire.AppendHandoffSource(nil, hs)
	if err != nil {
		t.Fatal(err)
	}
	begin, err := wire.AppendHandoffBegin(nil, wire.HandoffBegin{Shard: "shard-a", Sources: 2})
	if err != nil {
		t.Fatal(err)
	}

	beginFrame := wire.Frame{Type: wire.THandoffBegin, Payload: begin}
	badFrame := wire.Frame{Type: wire.THandoffSource, Payload: bad}
	goodFrame := wire.Frame{Type: wire.THandoffSource, Payload: good}

	reg := obs.NewRegistry()
	c, addr := startCollector(t, Config{Registry: reg})
	for _, tc := range []struct {
		name     string
		firstSeq uint64
		frames   []wire.Frame
		want     string
	}{
		{"import", 1, []wire.Frame{beginFrame, badFrame, goodFrame}, "map[w2:installed]"},
		{"replay bad", 2, []wire.Frame{badFrame}, "map[]"},
		{"replay good", 3, []wire.Frame{goodFrame}, "map[w2:duplicate]"},
	} {
		if got := deliverHandoff(t, addr, tc.firstSeq, tc.frames); got != tc.want {
			t.Fatalf("%s: dispositions %s, want %s", tc.name, got, tc.want)
		}
	}
	if c.Source("w1") != nil {
		t.Fatal("the failed import created its target row")
	}
	if n := reg.Counter("fluct_collector_handoff_errors_total").Value(); n != 1 {
		t.Fatalf("%d handoff errors counted, want 1", n)
	}
	peer := c.Source(wire.HandoffPeerPrefix + "shard-a")
	peer.mu.Lock()
	frames, failed := peer.row.Frames, peer.row.CRCErrors
	peer.mu.Unlock()
	if frames != 3 || failed != 1 {
		t.Fatalf("peer stream applied %d frames, %d failed; want 3, 1", frames, failed)
	}
}

// deliverHandoff sends frames, numbered from firstSeq in epoch 1, on a
// handoff peer stream to addr, as a drainer's shipper does, and returns
// the dispositions reported until the last frame is acknowledged.
func deliverHandoff(t *testing.T, addr string, firstSeq uint64, frames []wire.Frame) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := wire.ClientHandshake(conn, wire.HandoffPeerPrefix+"shard-a"); err != nil {
		t.Fatal(err)
	}
	shipV2Set(t, conn, frames, 1, firstSeq)
	last := firstSeq + uint64(len(frames)) - 1
	dispositions := map[string]string{}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	for {
		f, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case wire.THandoffAck:
			ack, err := wire.DecodeHandoffAck(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			dispositions[ack.Source] = ack.Disposition.String()
		case wire.TAck:
			if a, err := wire.DecodeAck(f.Payload); err == nil && a.Seq >= last {
				return fmt.Sprint(dispositions)
			}
		}
	}
}

// FuzzHandoffImport: a THandoffSource payload either fails — naming its
// source when it decodes, owing no disposition and creating no row — or
// installs a state whose checkpoint → restore → checkpoint is a byte
// fixed point. Run continuously with
//
//	go test -run '^$' -fuzz '^FuzzHandoffImport$' ./internal/collector
func FuzzHandoffImport(f *testing.F) {
	for _, name := range []string{"handoff_source.golden", "handoff_source_v2.golden"} {
		f.Add(readFile(f, "../wire/testdata/"+name))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := New(Config{CheckpointPath: t.TempDir() + "/checkpoint.json", Registry: obs.NewRegistry(), Detect: &detect.Config{}})
		if err != nil {
			t.Fatal(err)
		}
		ack, err := importPayload(c, payload)
		if err == nil {
			checkpointFixedPoint(t, c)
			return
		}
		if ack != (wire.HandoffAck{}) {
			t.Fatalf("a failed import owes disposition %+v", ack)
		}
		hs, derr := wire.DecodeHandoffSource(payload)
		if derr != nil || isHandoffPeer(hs.Source) {
			return
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", hs.Source)) {
			t.Fatalf("import failed naming no source: %v", err)
		}
		if c.Source(hs.Source) != nil {
			t.Fatalf("a failed import created row %q", hs.Source)
		}
	})
}
