// Command dbtrace runs the miniature database engine under the hybrid
// tracer and reports its latency distribution, the slowest queries with
// their per-function breakdowns, and the per-function fluctuation ranking —
// the workflow a DBA would follow to chase the tail the paper's
// introduction cites (Huang et al. [1]).
//
// Usage:
//
//	dbtrace -queries 5000 -workers 2 -reset 2000
//	dbtrace -queries 5000 -budget 0.05   # pick R from a calibration sweep
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workloads/dbsim"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "dbtrace:", err)
		os.Exit(1)
	}
}

// run parses args and writes the report to w.
func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("dbtrace", flag.ContinueOnError)
	var (
		queries = fs.Int("queries", 4000, "queries to run")
		workers = fs.Int("workers", 2, "worker threads (one core each)")
		reset   = fs.Uint64("reset", 2000, "PEBS reset value R")
		budget  = fs.Float64("budget", 0, "overhead budget (fraction); when set, a calibration sweep picks R")
		seed    = fs.Uint64("seed", 2026, "workload mix seed")
		slowest = fs.Int("slowest", 10, "slowest queries to break down")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	r := *reset
	if *budget > 0 {
		var err error
		r, err = planReset(*workers, *seed, *budget)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "calibration chose R=%d for a %.1f%% overhead budget\n\n", r, *budget*100)
	}

	res, err := dbsim.Run(dbsim.Config{Workers: *workers, Reset: r}, dbsim.Mix(*queries, *seed))
	if err != nil {
		return err
	}
	a, err := core.Integrate(res.Set, core.Options{})
	if err != nil {
		return err
	}

	ids := res.SlowestFirst()
	us := make([]float64, len(ids))
	for i, id := range ids {
		us[i] = res.CyclesToMicros(res.Stats[id].Cycles)
	}
	s := stats.Summarize(us)
	fmt.Fprintf(w, "%d queries on %d workers at R=%d:\n", *queries, *workers, r)
	fmt.Fprintf(w, "  mean %.1f us  stddev %.1f us (%.1fx mean)  p50 %.1f  p99 %.1f us\n\n",
		s.Mean, s.Stddev, s.Stddev/s.Mean, s.P50, s.P99)

	tbl := report.Table{
		Title:   "slowest queries, per-data-item breakdown",
		Headers: []string{"query", "kind", "worker", "total us", "top function", "top us", "misses", "fsync", "ckpt"},
	}
	for i, id := range ids {
		if i >= *slowest {
			break
		}
		st := res.Stats[id]
		it := a.Item(id)
		topName, topUs := "-", 0.0
		if it != nil {
			for _, fs := range it.Funcs {
				if v := a.CyclesToMicros(fs.Cycles()); v > topUs {
					topUs, topName = v, fs.Fn.Name
				}
			}
		}
		tbl.AddRow(report.U(id), st.Query.Kind.String(), report.I(st.Worker),
			report.F(res.CyclesToMicros(st.Cycles), 1), topName, report.F(topUs, 1),
			report.I(st.Misses), boolMark(st.Fsynced), boolMark(st.Checkpointed))
	}
	tbl.Render(w)

	fr := report.Table{
		Title:   "\nper-function fluctuation ranking",
		Headers: []string{"function", "mean us", "max us", "ratio", "estimable/total"},
	}
	for _, row := range core.FunctionReport(a) {
		fr.AddRow(row.Fn.Name, report.F(row.PerItemUs.Mean, 2), report.F(row.PerItemUs.Max, 2),
			report.F(row.FluctuationRatio, 1), fmt.Sprintf("%d/%d", row.EstimableItems, row.TotalItems))
	}
	fr.Render(w)
	return nil
}

// planReset runs a small calibration sweep of the same engine and fits a
// §V-C reset planner against the requested overhead budget.
func planReset(workers int, seed uint64, budget float64) (uint64, error) {
	const calQueries = 600
	mix := dbsim.Mix(calQueries, seed)
	meanCycles := func(reset uint64) (float64, float64, error) {
		res, err := dbsim.Run(dbsim.Config{Workers: workers, Reset: reset}, mix)
		if err != nil {
			return 0, 0, err
		}
		var sum uint64
		for _, st := range res.Stats {
			sum += st.Cycles
		}
		gap := 0.0
		if reset > 0 {
			a, err := core.Integrate(res.Set, core.Options{})
			if err != nil {
				return 0, 0, err
			}
			// Sum in ascending core order: a float sum in map order can
			// differ in its last bits from run to run.
			cores := make([]int32, 0, len(a.MeanSampleGap))
			for c := range a.MeanSampleGap {
				cores = append(cores, c)
			}
			slices.Sort(cores)
			gaps := make([]float64, len(cores))
			for i, c := range cores {
				gaps[i] = a.MeanSampleGap[c]
			}
			gap = stats.Mean(gaps)
		}
		return float64(sum) / float64(len(res.Stats)), gap, nil
	}
	base, _, err := meanCycles(0)
	if err != nil {
		return 0, err
	}
	var pts []core.CalibrationPoint
	for _, r := range []uint64{1000, 2000, 4000, 8000, 16000} {
		mean, gap, err := meanCycles(r)
		if err != nil {
			return 0, err
		}
		pts = append(pts, core.CalibrationPoint{Reset: r, IntervalCycles: gap, OverheadFrac: mean/base - 1})
	}
	p, err := core.NewResetPlanner(pts)
	if err != nil {
		return 0, err
	}
	return p.ForOverheadBudget(budget)
}

func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return ""
}
