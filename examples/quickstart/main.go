// Quickstart: trace a two-core pipeline with the hybrid tracer and print
// per-data-item, per-function elapsed times.
//
// The application is a miniature of the paper's Fig. 5 architecture: a
// feeder thread pins to core 0 and hands items to a worker pinned on core
// 1. The worker's handle() is fast for most items but slow for the first
// one (cold cache) — a performance fluctuation invisible to an averaged
// profile and obvious in the per-item trace.
//
//	go run ./examples/quickstart
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
	m := repro.NewMachine(repro.MachineConfig{Cores: 2})

	// Register the worker's functions as the "binary's" symbol table.
	parse := m.Syms.MustRegister("parse", 1024)
	handle := m.Syms.MustRegister("handle", 4096)
	respond := m.Syms.MustRegister("respond", 1024)

	// Hybrid tracer setup: PEBS on the worker core at R=2000 uops, plus
	// the marking function for data-item switches.
	pebs := repro.NewPEBS(repro.PEBSConfig{})
	m.Core(1).PMU.MustProgram(repro.UopsRetired, 2000, pebs)
	markers := repro.NewMarkerLog(m.Cores(), 0)

	// The pipeline: feeder -> ring -> worker.
	ring := repro.NewQueue[uint64](repro.QueueConfig{})
	m.MustSpawn(0, func(c *repro.Core) {
		for id := uint64(1); id <= 8; id++ {
			c.Exec(300) // produce the item
			ring.Push(c, id)
		}
		ring.Close()
	})
	m.MustSpawn(1, func(c *repro.Core) {
		warm := false
		for {
			id, ok := ring.Pop(c)
			if !ok {
				return
			}
			markers.Mark(c, id, repro.ItemBegin) // log(d.id, timestamp)
			c.Call(parse, func() { c.Exec(2_000) })
			c.Call(handle, func() {
				work := uint64(8_000)
				if !warm { // first item pays the cold path
					work = 80_000
					warm = true
				}
				c.Exec(work)
			})
			c.Call(respond, func() { c.Exec(3_000) })
			markers.Mark(c, id, repro.ItemEnd)
		}
	})
	m.Wait()

	// Integrate the two streams into per-item, per-function estimates.
	set := repro.NewTraceSet(m, markers, pebs.Samples())
	analysis, err := repro.Integrate(set, repro.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "item  total(us)  parse(us)  handle(us)  respond(us)")
	for i := range analysis.Items {
		it := &analysis.Items[i]
		fmt.Fprintf(w, "%4d  %9.2f  %9.2f  %10.2f  %11.2f\n",
			it.ID,
			analysis.CyclesToMicros(it.ElapsedCycles()),
			analysis.CyclesToMicros(it.Func("parse").Cycles()),
			analysis.CyclesToMicros(it.Func("handle").Cycles()),
			analysis.CyclesToMicros(it.Func("respond").Cycles()))
	}

	// The detector flags the cold item automatically.
	groups := repro.DetectFluctuations(analysis, func(*repro.Item) string { return "requests" }, 3, 0.5)
	for _, g := range groups {
		for _, it := range g.Outliers {
			fmt.Fprintf(w, "\nfluctuation: item %d took %.1f us vs group median ~%.1f us — handle() ran cold\n",
				it.ID, analysis.CyclesToMicros(it.ElapsedCycles()), g.Summary.P50)
		}
	}
	return nil
}
