package collector

import (
	"fmt"
	"net"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/wire"
)

// BenchmarkHandoffTransfer measures one complete source handoff cycle —
// export of a frozen source's full state (items, symbols, counters,
// verdicts, detector snapshot), wire encode, wire decode, and import as a
// fresh install — the per-source cost a planned drain pays.
func BenchmarkHandoffTransfer(b *testing.B) {
	set := verdictWorkloadSet(b, 300)
	var blob []byte
	for _, f := range rawSetFrames(b, set) {
		blob = wire.AppendFrame(blob, f)
	}
	coll, addr := startCollector(b, Config{Registry: obs.NewRegistry(), Detect: &detect.Config{}})
	defer coll.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	if _, err := wire.ClientHandshake(conn, "bench-handoff"); err != nil {
		b.Fatal(err)
	}
	shipV2Set(b, conn, nil, 1, 1) // every connection is sequenced: open the numbering first
	if _, err := conn.Write(blob); err != nil {
		b.Fatal(err)
	}
	waitSets(b, coll, "bench-handoff", 1, time.Minute)
	if aborted, err := coll.FreezeSource("bench-handoff", []string{"shard-b"}, 10*time.Second); err != nil || aborted {
		b.Fatalf("freeze: aborted=%v err=%v", aborted, err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs, err := coll.ExportSource("bench-handoff")
		if err != nil {
			b.Fatal(err)
		}
		payload, err := wire.AppendHandoffSource(nil, hs)
		if err != nil {
			b.Fatal(err)
		}
		dec, err := wire.DecodeHandoffSource(payload)
		if err != nil {
			b.Fatal(err)
		}
		// A unique target per iteration keeps every import on the
		// fresh-install path the drain itself takes.
		dec.Source = fmt.Sprintf("import-%07d", i)
		if disp := coll.importSource(dec); disp != wire.HandoffInstalled {
			b.Fatalf("import disposition %v, want installed", disp)
		}
		b.SetBytes(int64(len(payload)))
	}
}
