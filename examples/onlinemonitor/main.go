// Onlinemonitor demonstrates the §IV-C3 production deployment mode: instead
// of dumping the full PEBS stream to storage (hundreds of MB/s per core),
// the samples are integrated *online*; per-function estimates feed a
// running mean, and only when an estimate diverges beyond a threshold is
// the recent raw-sample window dumped for offline analysis.
//
// The workload is a long request stream in which a rare non-functional
// state — a periodic cache flush standing in for e.g. a competing tenant —
// makes a handful of requests an order of magnitude slower.
//
//	go run ./examples/onlinemonitor
package main

import (
	"fmt"
	"io"
	"os"

	repro "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	m := repro.NewMachine(repro.MachineConfig{Cores: 1})
	lookup := m.Syms.MustRegister("table_lookup", 4096)
	render := m.Syms.MustRegister("render_reply", 2048)

	pebs := repro.NewPEBS(repro.PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(repro.UopsRetired, 4000, pebs)
	markers := repro.NewMarkerLog(1, 0)

	const requests = 500
	const tableLines = 3000
	m.MustSpawn(0, func(c *repro.Core) {
		for id := uint64(1); id <= requests; id++ {
			if id%170 == 0 {
				// The rare non-functional state: something evicted the
				// table (nothing about the request itself changed).
				c.Cache.Flush()
			}
			markers.Mark(c, id, repro.ItemBegin)
			c.Call(lookup, func() {
				for l := 0; l < tableLines; l++ {
					c.Load(0x5000_0000 + uint64(l)*64)
					c.Exec(12)
				}
			})
			c.Call(render, func() { c.Exec(9000) })
			markers.Mark(c, id, repro.ItemEnd)
			c.Exec(800)
		}
	})
	m.Wait()

	// Online pipeline: stream integration -> running means -> raw dumps.
	// (Here the stream is replayed from the finished run; in a live
	// deployment the same calls run as the buffers drain.)
	set := repro.NewTraceSet(m, markers, pebs.Samples())
	ring, err := repro.NewRawRing(512)
	if err != nil {
		return err
	}
	mon := repro.NewOnlineMonitor(1.0) // dump at 100% divergence
	var dumps int
	var dumpedSamples int
	integ, err := repro.NewStreamIntegrator(m.Syms, repro.Options{}, func(it *repro.Item) {
		for _, d := range mon.Observe(it) {
			raw := ring.Dump()
			dumps++
			dumpedSamples += len(raw)
			fmt.Fprintf(w, "DIVERGENCE %s — dumped %d raw samples around it\n", d, len(raw))
		}
	})
	if err != nil {
		return err
	}
	feed := set.Feed()
	for r, ok := feed.Next(); ok; r, ok = feed.Next() {
		if r < 0 {
			integ.Marker(set.Markers[^r])
		} else {
			ring.Push(set.Samples[r])
			integ.Sample(set.Samples[r])
		}
	}
	integ.Close()

	total := len(set.Samples)
	fmt.Fprintf(w, "\n%d requests, %d samples taken, %d divergence dumps\n", requests, total, dumps)
	fmt.Fprintf(w, "raw samples persisted: %d of %d (%.1f%%) — the §IV-C3 volume reduction\n",
		dumpedSamples, total, 100*float64(dumpedSamples)/float64(total))
	return nil
}
