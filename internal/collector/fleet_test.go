package collector

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// TestCollectorFleetDuringIngest: Fleet, Health, Items and Checkpoint read
// while two sources ingest sets over loopback, each source's sets closing
// and replacing its payload under the readers. Acks skip the checkpoint
// here, so a set's payload is first read, and copied, by these readers
// rather than by the ack path. Every source ships the same set every time,
// so once both have one, every view's top-K equals a final quiescent read
// and every Items call returns the whole set.
func TestCollectorFleetDuringIngest(t *testing.T) {
	const sets = 20
	frames := rawSetFrames(t, workloadSet(t, 60))
	var blob []byte
	for _, f := range frames {
		blob = wire.AppendFrame(blob, f)
	}
	c, err := New(Config{CheckpointPath: t.TempDir() + "/checkpoint.json", Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	c.rx.Checkpoint = nil
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go c.Serve(l)
	addr := l.Addr().String()
	sources := []string{"w1", "w2"}
	conns := make([]net.Conn, len(sources))
	for i, id := range sources {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := wire.ClientHandshake(conn, id); err != nil {
			t.Fatal(err)
		}
		shipV2Set(t, conn, frames, 1, 1)
		go io.Copy(io.Discard, conn) // the acks
		conns[i] = conn
	}
	for _, id := range sources {
		waitSets(t, c, id, 1, 20*time.Second)
	}
	want := len(c.Source("w1").Items())

	var wg sync.WaitGroup
	for _, conn := range conns {
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			for i := 1; i < sets; i++ {
				if _, err := conn.Write(blob); err != nil {
					t.Error(err)
					return
				}
			}
		}(conn)
	}
	topK := func(v FleetView) string {
		var buf bytes.Buffer
		v.RenderTopK(&buf)
		return buf.String()
	}
	views := map[string]int{}
	for done := false; !done; {
		done = c.Source("w1").Sets() == sets && c.Source("w2").Sets() == sets
		views[topK(c.Fleet())]++
		if h := c.Health(); !h.OK {
			t.Fatalf("health %+v during a clean ingest", h)
		}
		for _, id := range sources {
			if n := len(c.Source(id).Items()); n != want {
				t.Fatalf("%s: Items returned %d items, want %d", id, n, want)
			}
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	final := topK(c.Fleet())
	for got, n := range views {
		if got != final {
			t.Fatalf("%d views read a top-K other than the quiescent one: %s", n, firstDiff(got, final))
		}
	}
}

// TestCollectorHealthCostFlat: a health read counts degraded sources and
// active verdicts from each source's summary and decodes no item, so its
// allocations do not grow with the items the sources hold.
func TestCollectorHealthCostFlat(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are noise under the race detector")
	}
	allocs := func(nItems int) float64 {
		c := checkpointShape(t, 2, nItems)
		return testing.AllocsPerRun(20, func() { c.Health() })
	}
	if small, large := allocs(16), allocs(2000); small != large {
		t.Fatalf("Health allocations grow with items: %v at 2×16, %v at 2×2000", small, large)
	}
}

// TestCollectorFleetCostFlat: a fleet read walks each source's payload and
// copies only the items that enter its top-K candidates, so at K = 10 the
// bytes it allocates do not grow with the items the sources hold.
func TestCollectorFleetCostFlat(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are noise under the race detector")
	}
	readBytes := func(nItems int) uint64 {
		c := checkpointShape(t, 2, nItems)
		_, b := perRun(20, func() { c.Fleet() })
		return b
	}
	if small, large := readBytes(16), readBytes(2000); large > small+4<<10 {
		t.Fatalf("Fleet bytes grow with items: %d B at 2×16, %d B at 2×2000", small, large)
	}
}
