// Command acltrace runs the DPDK-style ACL firewall pipeline under the
// hybrid tracer and reports per-packet rte_acl_classify estimates, the way
// an operator would use the method against a live application. It can also
// dump the raw hybrid trace to a file for offline analysis with tracedump.
//
// Usage:
//
//	acltrace -packets 5000 -reset 16000 -trace /tmp/acl.fltrc
//
// With -dataplane it traces the internal/dataplane function chain (parse →
// flow-cache → acl0 → route0 → emit over the canonical dpchain spec)
// instead of the rte_acl pipeline, reporting per-stage estimates:
//
//	acltrace -dataplane -packets 2000 -reset 1000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/dpdkapp"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads/dpchain"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "acltrace:", err)
		os.Exit(1)
	}
}

// run parses args and writes the report to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("acltrace", flag.ContinueOnError)
	var (
		packets  = fs.Int("packets", 5000, "number of test packets (types A/B/C round-robin)")
		reset    = fs.Uint64("reset", 16000, "PEBS reset value R (0 disables sampling)")
		baseline = fs.Bool("baseline", false, "also run the instrumented golden baseline")
		traceOut = fs.String("trace", "", "write the raw hybrid trace to this file")
		items    = fs.Int("items", 10, "per-packet rows to print")
		dpmode   = fs.Bool("dataplane", false, "trace the dataplane function chain (dpchain spec) instead of the rte_acl pipeline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *dpmode {
		return runDataplane(w, *packets, *reset, *items, *traceOut)
	}

	cfg := dpdkapp.Config{Reset: *reset, Markers: true, BaselineProbe: *baseline}
	res, err := dpdkapp.Run(cfg, dpdkapp.PaperPacketSequence(*packets))
	if err != nil {
		return err
	}
	a, err := core.Integrate(res.Set, core.Options{})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "acltrace: %d packets, R=%d, %d samples (%d MB of PEBS records)\n\n",
		*packets, *reset, res.SampleCount, res.SampleBytes>>20)

	t := report.Table{
		Title:   "per-type rte_acl_classify estimates",
		Headers: []string{"type", "mean us", "std us", "estimable", "tester latency us"},
	}
	var perType [acl.NumPacketTypes][]float64
	var latType [acl.NumPacketTypes][]float64
	for i := range a.Items {
		it := &a.Items[i]
		if fs := it.Func(dpdkapp.FnClassify); fs.Estimable() {
			pt := dpdkapp.PacketTypeOf(it.ID)
			perType[pt] = append(perType[pt], a.CyclesToMicros(fs.Cycles()))
		}
	}
	for _, l := range res.Latencies {
		pt := dpdkapp.PacketTypeOf(l.Payload.ID)
		latType[pt] = append(latType[pt], res.CyclesToMicros(l.Cycles))
	}
	for pt := acl.TypeA; pt <= acl.TypeC; pt++ {
		s := stats.Summarize(perType[pt])
		t.AddRow(pt.String(), report.F(s.Mean, 2), report.F(s.Stddev, 2),
			report.I(s.N), report.F(stats.Mean(latType[pt]), 2))
	}
	t.Render(w)

	if *baseline {
		bt := report.Table{
			Title:   "\ninstrumented baseline (golden)",
			Headers: []string{"type", "mean us", "std us"},
		}
		var base [acl.NumPacketTypes][]float64
		for _, b := range res.Baseline {
			pt := dpdkapp.PacketTypeOf(b.ID)
			base[pt] = append(base[pt], res.CyclesToMicros(b.Cycles))
		}
		for pt := acl.TypeA; pt <= acl.TypeC; pt++ {
			s := stats.Summarize(base[pt])
			bt.AddRow(pt.String(), report.F(s.Mean, 2), report.F(s.Stddev, 2))
		}
		bt.Render(w)
	}

	if *items > 0 {
		pt := report.Table{
			Title:   fmt.Sprintf("\nfirst %d packets, individually (the per-data-item view)", *items),
			Headers: []string{"packet", "type", "classify us", "total us", "samples"},
		}
		for i := range a.Items {
			if i >= *items {
				break
			}
			it := &a.Items[i]
			pt.AddRow(report.U(it.ID), dpdkapp.PacketTypeOf(it.ID).String(),
				report.F(a.CyclesToMicros(it.Func(dpdkapp.FnClassify).Cycles()), 2),
				report.F(a.CyclesToMicros(it.ElapsedCycles()), 2),
				report.I(it.SampleCount))
		}
		pt.Render(w)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := res.Set.Encode(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote raw trace to %s (%d markers, %d samples)\n",
			*traceOut, len(res.Set.Markers), len(res.Set.Samples))
	}
	return nil
}

// runDataplane traces the compiled ACL → LPM function chain on the
// canonical dpchain spec and reports per-stage estimates.
func runDataplane(w io.Writer, packets int, reset uint64, items int, traceOut string) error {
	const workers = 2
	cfg := dpchain.BaseConfig(workers, packets/workers)
	cfg.Reset = reset
	res, err := dataplane.Run(cfg)
	if err != nil {
		return err
	}
	if err := res.VerifyTruth(); err != nil {
		return err
	}
	a, err := core.Integrate(res.Set, core.Options{})
	if err != nil {
		return err
	}

	cs := res.CacheStats
	fmt.Fprintf(w, "acltrace: dataplane chain, %d packets on %d cores, R=%d, %d tries / %d atoms, flow cache %d hits / %d misses\n\n",
		packets/workers*workers, workers, reset,
		cfg.Matcher().Tries(), cfg.Matcher().Atoms(), cs.Hits, cs.Misses)

	t := report.Table{
		Title:   "per-stage estimates across packets",
		Headers: []string{"stage", "mean us", "std us", "estimable", "share %"},
	}
	perStage := map[string][]float64{}
	var total float64
	for i := range a.Items {
		it := &a.Items[i]
		for _, name := range dataplane.StageNames {
			if fs := it.Func(name); fs.Estimable() {
				us := a.CyclesToMicros(fs.Cycles())
				perStage[name] = append(perStage[name], us)
				total += us
			}
		}
	}
	for _, name := range dataplane.StageNames {
		s := stats.Summarize(perStage[name])
		share := 0.0
		if total > 0 {
			share = s.Mean * float64(s.N) / total * 100
		}
		t.AddRow(name, report.F(s.Mean, 2), report.F(s.Stddev, 2),
			report.I(s.N), report.F(share, 1))
	}
	t.Render(w)

	if items > 0 {
		pt := report.Table{
			Title:   fmt.Sprintf("\nfirst %d packets, individually (the per-data-item view)", items),
			Headers: []string{"packet", "core", "acl us", "route us", "total us", "verdict", "samples"},
		}
		for i := range a.Items {
			if i >= items {
				break
			}
			it := &a.Items[i]
			v := res.Verdicts[it.ID-1]
			verdict := "deny"
			if v.Action == dataplane.Allow {
				verdict = fmt.Sprintf("allow nh=%d", v.NextHop)
			}
			pt.AddRow(report.U(it.ID), report.I(int(it.Core)),
				report.F(a.CyclesToMicros(it.Func(dataplane.FnACL).Cycles()), 2),
				report.F(a.CyclesToMicros(it.Func(dataplane.FnRoute).Cycles()), 2),
				report.F(a.CyclesToMicros(it.ElapsedCycles()), 2),
				verdict, report.I(it.SampleCount))
		}
		pt.Render(w)
	}

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := res.Set.Encode(f); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote raw trace to %s (%d markers, %d samples)\n",
			traceOut, len(res.Set.Markers), len(res.Set.Samples))
	}
	return nil
}
