// Timerswitch demonstrates the §V-A extension for timer-switching
// architectures: a user-level-threading scheduler slices three data-items
// across one core, storing the current item's ID in register r13 at every
// context switch. PEBS snapshots the register file into every sample, so
// register-based integration reconstructs each interleaved item exactly —
// something marker intervals cannot express (they would overlap).
//
//	go run ./examples/timerswitch
package main

import (
	"fmt"
	"io"
	"os"

	repro "repro"
	"repro/internal/workloads/ultl"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	m := repro.NewMachine(repro.MachineConfig{Cores: 1})
	c := m.Core(0)

	pebs := repro.NewPEBS(repro.PEBSConfig{})
	c.PMU.MustProgram(repro.UopsRetired, 1000, pebs)

	tasks := []ultl.Task{
		{ID: 101, FnName: "render_page", Uops: 120_000},
		{ID: 102, FnName: "render_page", Uops: 60_000},
		{ID: 103, FnName: "resize_image", Uops: 90_000},
	}
	res, err := ultl.Run(c, ultl.DefaultConfig(), tasks)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "scheduler: %d context switches, slices per item: %v\n\n", res.Switches, res.Slices)

	set := repro.NewTraceSet(m, repro.NewMarkerLog(1, 0), pebs.Samples())
	a, err := repro.IntegrateByRegister(set, repro.R13, repro.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "item  window(us)        samples  est-from-samples(us)  true(us)")
	for i := range a.Items {
		it := &a.Items[i]
		est := float64(it.SampleCount) * a.MeanSampleGap[0] / 2000 // cycles→us at 2 GHz
		fmt.Fprintf(w, "%4d  [%7.1f,%7.1f]  %7d  %20.1f  %8.1f\n",
			it.ID,
			a.CyclesToMicros(it.BeginTSC), a.CyclesToMicros(it.EndTSC),
			it.SampleCount, est,
			float64(res.TrueCycles[it.ID])/2000)
	}
	fmt.Fprintln(w, "\nnote the overlapping [begin,end] windows: the items interleave on the core,")
	fmt.Fprintln(w, "yet every sample still maps to the right item via r13")
	return nil
}
