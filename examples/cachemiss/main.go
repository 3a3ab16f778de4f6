// Cachemiss demonstrates the §V-D extension: measuring a performance
// metric other than elapsed time, per data-item and per function, by
// programming PEBS with a cache-miss event instead of UOPS_RETIRED.ALL.
// The number of samples mapped to {function, item} × the reset value
// estimates how many misses that function incurred for that item.
//
//	go run ./examples/cachemiss
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
	scan := m.Syms.MustRegister("scan_table", 4096)

	// Sample every 4th LLC miss.
	const resetValue = 4
	pebs := repro.NewPEBS(repro.PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(repro.LLCMisses, resetValue, pebs)
	markers := repro.NewMarkerLog(1, 0)

	// Item 1 scans 16 MiB of cold memory; item 2 re-scans a hot 64 KiB.
	// Same function, same query shape — wildly different miss counts.
	m.MustSpawn(0, func(c *repro.Core) {
		markers.Mark(c, 1, repro.ItemBegin)
		c.Call(scan, func() {
			for addr := uint64(0); addr < 16<<20; addr += 64 {
				c.Load(0x1000_0000 + addr)
			}
		})
		markers.Mark(c, 1, repro.ItemEnd)

		markers.Mark(c, 2, repro.ItemBegin)
		c.Call(scan, func() {
			for pass := 0; pass < 256; pass++ {
				for addr := uint64(0); addr < 64<<10; addr += 64 {
					c.Load(0x2000_0000 + addr)
				}
			}
		})
		markers.Mark(c, 2, repro.ItemEnd)
	})
	m.Wait()

	set := repro.NewTraceSet(m, markers, pebs.Samples())
	counts, err := repro.EventCounts(set, repro.LLCMisses, resetValue)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "item  function    est. LLC misses")
	for _, ec := range counts {
		fmt.Fprintf(w, "%4d  %-10s  %15d\n", ec.Item, ec.Fn.Name, ec.EstOccurrences)
	}
	fmt.Fprintln(w, "\nboth items ran the same function; the miss counts expose the cold scan")
	return nil
}
