// Command tracedump inspects a serialized hybrid trace (written by
// acltrace -trace or TraceSet.Encode): it prints the trace inventory,
// reconstructs per-data-item function times, and optionally the averaged
// profile — the offline half of the paper's workflow, where the prototype
// dumps samples to SSD during the run and analyzes them later.
//
// It can also degrade a trace on the way in (-faults) to rehearse how the
// diagnosis behaves on imperfect production traces, and write the degraded
// trace back out (-faults-out) for other tools.
//
// Usage:
//
//	tracedump -items 20 /tmp/acl.fltrc
//	tracedump -profile /tmp/acl.fltrc
//	tracedump -faults 'seed=7,loss=0.1,burst=32,mdrop=0.02' -gaps /tmp/acl.fltrc
//	tracedump -faults 'fnslow=rte_acl_classify,fnfactor=6,fnafter=0.5' -verdicts /tmp/acl.fltrc
//
// -verdicts replays the reconstructed items through the online
// fluctuation detector (internal/detect) in completion order and prints
// every root-cause verdict — the offline twin of `fluctd -detect`,
// useful for re-diagnosing an archived trace or rehearsing the detector
// against injected ground truth as in the last example.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/trace"
)

// errUsage is returned when no trace file is named.
var errUsage = errors.New("usage: tracedump [flags] <trace file> [more trace files...]")

func main() {
	err := run(os.Stdout, os.Args[1:])
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "tracedump:", err)
		os.Exit(1)
	}
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run parses args and writes the report to w.
func run(w io.Writer, args []string) (err error) {
	flags := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	var (
		items      = flags.Int("items", 10, "per-item rows to print (0 = none)")
		profile    = flags.Bool("profile", false, "print the averaged whole-run profile")
		functions  = flags.Bool("functions", false, "print the per-function fluctuation report")
		exclude    = flags.Bool("exclude-boundaries", false, "exclude samples exactly on marker timestamps")
		csvOut     = flags.String("csv", "", "export markers+samples as CSV to <prefix>-markers.csv / <prefix>-samples.csv")
		jsonlOut   = flags.String("jsonl", "", "export all events as JSON Lines to this file")
		faultsSpec = flags.String("faults", "", "inject faults before analysis, e.g. 'seed=7,loss=0.1,burst=32,mdrop=0.02,mdup=0.01,skew=500,reorder=16,trunc=0.9'")
		faultsOut  = flags.String("faults-out", "", "write the (possibly perturbed) trace to this file")
		gaps       = flags.Bool("gaps", false, "print the per-core gap/degradation summary")
		verdicts   = flags.Bool("verdicts", false, "replay the items through the online fluctuation detector and print every verdict (offline root-cause pass)")
		spansOut   = flags.String("spans", "", "trace the tracer: write the analyzer's own spans as Chrome trace_event JSON to this file (load in chrome://tracing or Perfetto)")
	)
	if err := flags.Parse(args); err != nil {
		return err
	}
	if flags.NArg() < 1 {
		return errUsage
	}
	if *spansOut != "" {
		// Start before the first Decode so every analyzer phase — decode,
		// merge, gap scan, shard fan-out — lands on the timeline.
		obs.StartTracing()
		defer func() {
			tr := obs.StopTracing()
			if werr := writeFile(*spansOut, tr.WriteTrace); werr != nil {
				err = cmp.Or(err, werr)
				return
			}
			fmt.Fprintf(w, "wrote %s (%d spans)\n", *spansOut, len(tr.Events()))
		}()
	}
	// Multiple files (e.g. per-core dumps) are merged before analysis.
	sets := make([]*trace.Set, 0, flags.NArg())
	for _, path := range flags.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		s, err := trace.Decode(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		sets = append(sets, s)
	}
	set, err := trace.Merge(sets...)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "trace: %d markers, %d samples, %d symbols, TSC %d Hz\n\n",
		len(set.Markers), len(set.Samples), symCount(set), set.FreqHz)

	opts := core.Options{ExcludeBoundaries: *exclude}
	if *faultsSpec != "" {
		plan, err := faults.ParsePlan(*faultsSpec)
		if err != nil {
			return err
		}
		var rep faults.Report
		set, rep = faults.Perturb(set, plan)
		fmt.Fprintf(w, "%s\n", rep)
		fmt.Fprintf(w, "degraded trace: %d markers, %d samples remain\n\n", len(set.Markers), len(set.Samples))
	}
	if *faultsOut != "" {
		if err := writeFile(*faultsOut, set.Encode); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n\n", *faultsOut)
	}

	g := set.GapSummary(opts.Event)
	if *gaps || g.Degraded() {
		fmt.Fprintf(w, "%s\n", g)
		if *gaps {
			t := report.Table{
				Title:   "per-core stream health",
				Headers: []string{"core", "samples", "mean gap cy", "max gap cy", "suspect bursts", "est lost", "begin/end markers"},
			}
			for _, c := range g.PerCore {
				t.AddRow(report.I(int(c.Core)), report.I(c.Samples),
					report.F(c.MeanGapCycles, 0), report.U(c.MaxGapCycles),
					report.I(c.SuspectBursts), report.I(c.EstLostSamples),
					fmt.Sprintf("%d/%d", c.BeginMarkers, c.EndMarkers))
			}
			t.Render(w)
		}
		fmt.Fprintln(w)
	}

	a, err := core.Integrate(set, opts)
	if err != nil {
		return err
	}
	var confSum float64
	for i := range a.Items {
		confSum += a.Items[i].Confidence
	}
	meanConf := 1.0
	if len(a.Items) > 0 {
		meanConf = confSum / float64(len(a.Items))
	}
	fmt.Fprintf(w, "items: %d   mean confidence: %.3f   unattributed samples: %d   unresolved: %d   marker anomalies: %d (repaired: %d)\n\n",
		len(a.Items), meanConf, a.Diag.UnattributedSamples, a.Diag.UnresolvedSamples,
		a.Diag.OrphanEndMarkers+a.Diag.ReopenedItems+a.Diag.UnclosedItems,
		a.Diag.RepairedMarkers)

	if *items > 0 {
		t := report.Table{
			Title:   "per-data-item function estimates",
			Headers: []string{"item", "core", "total us", "conf", "function", "est us", "samples"},
		}
		for i := range a.Items {
			if i >= *items {
				break
			}
			it := &a.Items[i]
			if len(it.Funcs) == 0 {
				t.AddRow(report.U(it.ID), report.I(int(it.Core)),
					report.F(a.CyclesToMicros(it.ElapsedCycles()), 2),
					report.F(it.Confidence, 2), "-", "-", "0")
				continue
			}
			for j, fs := range it.Funcs {
				id, total, conf := "", "", ""
				if j == 0 {
					id = report.U(it.ID)
					total = report.F(a.CyclesToMicros(it.ElapsedCycles()), 2)
					conf = report.F(it.Confidence, 2)
				}
				t.AddRow(id, report.I(int(it.Core)), total, conf, fs.Fn.Name,
					report.F(a.CyclesToMicros(fs.Cycles()), 2), report.I(fs.Samples))
			}
		}
		t.Render(w)
	}

	if *functions {
		t := report.Table{
			Title:   "\nper-function fluctuation report (max/mean over items; ~1 = steady)",
			Headers: []string{"function", "mean us", "p50 us", "max us", "ratio", "estimable/total"},
		}
		for _, row := range core.FunctionReport(a) {
			t.AddRow(row.Fn.Name,
				report.F(row.PerItemUs.Mean, 2), report.F(row.PerItemUs.P50, 2),
				report.F(row.PerItemUs.Max, 2), report.F(row.FluctuationRatio, 2),
				fmt.Sprintf("%d/%d", row.EstimableItems, row.TotalItems))
		}
		t.Render(w)
	}

	if *verdicts {
		if err := dumpVerdicts(w, a); err != nil {
			return err
		}
	}

	if *csvOut != "" {
		// A slice, not a map: the "wrote" lines print in a fixed order.
		for _, out := range []struct {
			suffix string
			export func(io.Writer) error
		}{
			{"-markers.csv", set.ExportMarkersCSV},
			{"-samples.csv", set.ExportSamplesCSV},
		} {
			if err := writeFile(*csvOut+out.suffix, out.export); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", *csvOut+out.suffix)
		}
	}
	if *jsonlOut != "" {
		if err := writeFile(*jsonlOut, set.ExportJSONL); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *jsonlOut)
	}

	if *profile {
		prof, err := core.Profile(set, opts)
		if err != nil {
			return err
		}
		t := report.Table{
			Title:   "\naveraged profile (whole run)",
			Headers: []string{"function", "samples", "share", "est us"},
		}
		for _, e := range prof.Entries {
			t.AddRow(e.Fn.Name, report.I(e.Samples),
				report.F(e.Share*100, 1)+"%", report.F(prof.CyclesToMicros(e.EstCycles), 1))
		}
		t.Render(w)
	}
	return nil
}

// dumpVerdicts replays the integrated items through the online detector
// in (EndTSC, core) completion order — the order a live collector sees —
// and prints the full verdict history plus the lifecycle counters. The
// offline twin of `fluctd -detect`; what it prints for a trace is exactly
// what the collector's /verdicts would have shown over it.
func dumpVerdicts(w io.Writer, a *core.Analysis) error {
	var hist []detect.Verdict
	det, err := detect.New(detect.Config{
		Source:    "tracedump",
		FreqHz:    a.FreqHz,
		OnVerdict: func(v detect.Verdict) { hist = append(hist, v) },
		Registry:  obs.NewRegistry(), // keep the replay out of the default metrics
	})
	if err != nil {
		return err
	}
	items := append([]core.Item(nil), a.Items...)
	slices.SortStableFunc(items, func(x, y core.Item) int {
		if c := cmp.Compare(x.EndTSC, y.EndTSC); c != 0 {
			return c
		}
		return cmp.Compare(x.Core, y.Core)
	})
	for i := range items {
		det.Update(&items[i])
	}

	st := det.Stats()
	fmt.Fprintf(w, "\ndetector: %d items, %d change events (%d resolved, %d false resets), %d verdicts, %d still active\n",
		st.Items, st.Changepoints, st.Resolved, st.FalseResets, st.Verdicts, st.Active)
	if len(hist) == 0 {
		fmt.Fprintln(w, "no fluctuation verdicts: the per-item latency series has no sustained shift")
		return nil
	}
	t := report.Table{
		Title:   "fluctuation verdicts (rank 0 = strongest cause per event)",
		Headers: []string{"event", "rank", "function", "core", "delta us/item", "score", "items", "worst item"},
	}
	for _, v := range hist {
		t.AddRow(report.U(v.Event), report.I(v.Rank), v.Function, report.I(int(v.Core)),
			report.F(float64(v.DeltaNs)/1e3, 1), report.F(v.Score, 1),
			fmt.Sprintf("%d..%d", v.Window.FirstItem, v.Window.LastItem), report.U(v.Item))
	}
	t.Render(w)
	return nil
}

func symCount(s *trace.Set) int {
	if s.Syms == nil {
		return 0
	}
	return s.Syms.Len()
}
