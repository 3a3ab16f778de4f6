// Ipforward traces a DPDK-style IP forwarder built on the DIR-24-8-like
// LPM table: a second realistic case study beside the ACL firewall, with a
// different fluctuation mechanism. Every lookup probes the first-level
// table once; destinations covered by routes deeper than the first level
// take a second probe into an overflow page. Two packets to neighbouring
// addresses can therefore differ in rte_lpm_lookup time purely by route
// depth — invisible in any profile, explicit in the per-packet trace.
//
//	go run ./examples/ipforward
package main

import (
	"fmt"
	"io"
	"os"

	repro "repro"
	"repro/internal/lpm"
	"repro/internal/stats"
)

func ip(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// A routing table with a shallow aggregate and a deep customer block.
	routes := []lpm.Route{
		{Prefix: 0, Len: 0, NextHop: 0},                // default
		{Prefix: ip(10, 0, 0, 0), Len: 8, NextHop: 1},  // aggregate
		{Prefix: ip(10, 7, 0, 0), Len: 16, NextHop: 2}, // region
	}
	// 256 deep customer routes under 10.7.77.0/24.
	for h := 0; h < 256; h++ {
		routes = append(routes, lpm.Route{
			Prefix: ip(10, 7, 77, byte(h)), Len: 32, NextHop: 100 + h%4,
		})
	}
	table := lpm.MustBuild(routes, lpm.Config{})

	m := repro.NewMachine(repro.MachineConfig{Cores: 1})
	ipInput := m.Syms.MustRegister("ip_input", 2048)
	lookupFn := m.Syms.MustRegister("rte_lpm_lookup", 2048)
	ipOutput := m.Syms.MustRegister("ip_output", 2048)

	pebs := repro.NewPEBS(repro.PEBSConfig{})
	c := m.Core(0)
	c.PMU.MustProgram(repro.UopsRetired, 200, pebs)
	markers := repro.NewMarkerLog(1, 0)

	const packets = 400
	deepByID := map[uint64]bool{}
	m.MustSpawn(0, func(c *repro.Core) {
		meter := lpm.NewMeter(c, lpm.DefaultTimingConfig())
		for id := uint64(1); id <= packets; id++ {
			// Alternate between aggregate-covered and customer-covered
			// destinations: identical processing, different route depth.
			dst := ip(10, 9, byte(id), byte(id*7))
			if id%2 == 0 {
				dst = ip(10, 7, 77, byte(id))
			}
			markers.Mark(c, id, repro.ItemBegin)
			c.Call(ipInput, func() { c.Exec(2500) })
			var ext bool
			c.Call(lookupFn, func() {
				// Several lookups per packet, as l3fwd batches do.
				for k := 0; k < 64; k++ {
					_, ext = table.Lookup(dst, meter)
				}
			})
			deepByID[id] = ext
			c.Call(ipOutput, func() { c.Exec(3000) })
			markers.Mark(c, id, repro.ItemEnd)
			c.Exec(400)
		}
	})
	m.Wait()

	set := repro.NewTraceSet(m, markers, pebs.Samples())
	a, err := repro.Integrate(set, repro.Options{})
	if err != nil {
		return err
	}
	var shallow, deep []float64
	for i := range a.Items {
		it := &a.Items[i]
		us := a.CyclesToMicros(it.Func("rte_lpm_lookup").Cycles())
		if deepByID[it.ID] {
			deep = append(deep, us)
		} else {
			shallow = append(shallow, us)
		}
	}
	fmt.Fprintf(w, "rte_lpm_lookup per packet (64 lookups each), table %d routes / %d pages:\n",
		table.Routes(), table.Pages())
	fmt.Fprintf(w, "  aggregate-covered (1 probe):  %s\n", stats.Summarize(shallow))
	fmt.Fprintf(w, "  customer-covered  (2 probes): %s\n", stats.Summarize(deep))
	fmt.Fprintln(w, "\nsame function, same packet rate — the route depth is the non-functional state")
	return nil
}
