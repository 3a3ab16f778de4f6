// Contention reproduces the other fluctuation source the paper's
// introduction cites — Dobrescu et al. [2]: "the performance of a software
// packet-processing platform drops by 27% in the worst case due to shared
// resource contentions."
//
// A packet-forwarding worker runs steadily until a co-located workload
// starts hammering the shared memory system (modeled as extra latency on
// every memory access). Packets processed during the contention window are
// identical to the others — only the non-functional state differs — and
// the per-data-item trace shows exactly which function absorbs the slowdown
// (the table-lookup function, whose misses go to contended memory).
//
//	go run ./examples/contention
package main

import (
	"fmt"
	"io"
	"os"

	repro "repro"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	m := repro.NewMachine(repro.MachineConfig{Cores: 1})
	lookup := m.Syms.MustRegister("fib_lookup", 4096)   // memory-bound
	rewrite := m.Syms.MustRegister("hdr_rewrite", 2048) // compute-bound

	pebs := repro.NewPEBS(repro.PEBSConfig{})
	c := m.Core(0)
	// R=1000: memory-bound code retires few uops per unit time, so a
	// uops-driven sampler needs a dense rate to catch it (§V-B1 applied
	// to stall-heavy functions).
	c.PMU.MustProgram(repro.UopsRetired, 1000, pebs)
	markers := repro.NewMarkerLog(1, 0)

	const packets = 300
	m.MustSpawn(0, func(c *repro.Core) {
		for id := uint64(1); id <= packets; id++ {
			// The noisy neighbour arrives for the middle third of the run.
			switch {
			case id == packets/3:
				c.Cache.SetMemPenalty(200) // ~100 ns extra per memory access
			case id == 2*packets/3:
				c.Cache.SetMemPenalty(0)
			}
			markers.Mark(c, id, repro.ItemBegin)
			c.Call(lookup, func() {
				for i := 0; i < 100; i++ {
					// A large FIB: most lookups miss the private caches.
					c.Load(0x7000_0000 + (id*2654435761+uint64(i)*8191)%(64<<20))
					c.Exec(40)
				}
			})
			c.Call(rewrite, func() { c.Exec(6000) })
			markers.Mark(c, id, repro.ItemEnd)
			c.Exec(500)
		}
	})
	m.Wait()

	set := repro.NewTraceSet(m, markers, pebs.Samples())
	a, err := repro.Integrate(set, repro.Options{})
	if err != nil {
		return err
	}

	var quietTotal, noisyTotal []float64
	var quietLookup, noisyLookup, quietRewrite, noisyRewrite []float64
	for i := range a.Items {
		it := &a.Items[i]
		contended := it.ID >= packets/3 && it.ID < 2*packets/3
		tot := a.CyclesToMicros(it.ElapsedCycles())
		lk := a.CyclesToMicros(it.Func("fib_lookup").Cycles())
		rw := a.CyclesToMicros(it.Func("hdr_rewrite").Cycles())
		if contended {
			noisyTotal = append(noisyTotal, tot)
			noisyLookup = append(noisyLookup, lk)
			noisyRewrite = append(noisyRewrite, rw)
		} else {
			quietTotal = append(quietTotal, tot)
			quietLookup = append(quietLookup, lk)
			quietRewrite = append(quietRewrite, rw)
		}
	}
	q, n := stats.Mean(quietTotal), stats.Mean(noisyTotal)
	fmt.Fprintf(w, "identical packets, two non-functional states:\n")
	fmt.Fprintf(w, "  quiet:     %.1f us/packet\n", q)
	fmt.Fprintf(w, "  contended: %.1f us/packet  (throughput drop %.0f%%)\n\n", n, 100*(1-q/n))
	fmt.Fprintf(w, "where the time went (per-data-item function estimates):\n")
	fmt.Fprintf(w, "  fib_lookup:  quiet %.1f us -> contended %.1f us   <= absorbs the contention\n",
		stats.Mean(quietLookup), stats.Mean(noisyLookup))
	fmt.Fprintf(w, "  hdr_rewrite: quiet %.1f us -> contended %.1f us   <= compute-bound, unaffected\n",
		stats.Mean(quietRewrite), stats.Mean(noisyRewrite))
	return nil
}
