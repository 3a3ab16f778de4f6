package collector

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/wire"
)

// benchIngest measures the live ingest path end to end: N concurrent
// sources stream pre-encoded trace sets over real TCP loopback connections
// into one collector, and an iteration is one complete set delivered and
// integrated per source. This is the number the zero-copy work exists to
// move — pooled frame reads, decode and integration on each connection's
// own goroutine under its source's apply mutex, and the per-source dedup
// bookkeeping, all under concurrent load.
func benchIngest(b *testing.B, cfg Config) {
	const nSources = 4
	set := workloadSet(b, 120)
	var blob []byte
	for _, f := range rawSetFrames(b, set) {
		blob = wire.AppendFrame(blob, f)
	}

	cfg.Registry = obs.NewRegistry()
	coll, addr := startCollector(b, cfg)
	defer coll.Close()
	conns := make([]net.Conn, nSources)
	for i := range conns {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		if _, err := wire.ClientHandshake(conn, fmt.Sprintf("bench-%d", i)); err != nil {
			b.Fatal(err)
		}
		// Every connection is sequenced: open the numbering, after which the
		// collector numbers the frames by arrival and acks every SetEnd —
		// read those off so its writes never back up.
		shipV2Set(b, conn, nil, 1, 1)
		go io.Copy(io.Discard, conn)
		conns[i] = conn
	}

	b.SetBytes(int64(len(blob)) * nSources)
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, conn := range conns {
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Write(blob); err != nil {
					b.Error(err)
					return
				}
			}
		}(conn)
	}
	wg.Wait()
	for i := 0; i < nSources; i++ {
		waitSets(b, coll, fmt.Sprintf("bench-%d", i), uint64(b.N), 5*time.Minute)
	}
	b.StopTimer()
}

// BenchmarkCollectorIngest is the detection-off baseline.
func BenchmarkCollectorIngest(b *testing.B) {
	benchIngest(b, Config{})
}

// BenchmarkCollectorIngestDetect is the same path with the online
// fluctuation detector updating on every integrated item: its distance
// from BenchmarkCollectorIngest is what detection costs the ingest path.
func BenchmarkCollectorIngestDetect(b *testing.B) {
	benchIngest(b, Config{Detect: &detect.Config{}})
}

// BenchmarkCollectorFleet measures the two fleet reads at the shapes
// BenchmarkCollectorCheckpoint runs: Fleet, the /fleet view with its
// top-K items, and Health, the /healthz verdict, which needs no item.
func BenchmarkCollectorFleet(b *testing.B) {
	for _, shape := range []struct{ sources, items int }{{130, 16}, {2, 2000}} {
		c := checkpointShape(b, shape.sources, shape.items)
		for _, read := range []struct {
			name string
			f    func()
		}{{"Fleet", func() { c.Fleet() }}, {"Health", func() { c.Health() }}} {
			b.Run(fmt.Sprintf("%s/%dx%d", read.name, shape.sources, shape.items), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					read.f()
				}
			})
		}
	}
}
