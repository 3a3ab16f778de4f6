// Database runs the miniature database engine under the hybrid tracer and
// diagnoses its tail latency — the paper's opening motivation (Huang et
// al. [1]: on TPC-C "the standard deviation was twice the mean" and "the
// 99th percentile was an order of magnitude greater than the mean").
//
// The engine's fluctuations come from three non-functional states: buffer
// pool warmth (disk reads), group-commit fsyncs, and checkpoints. A profile
// cannot tell them apart; the per-data-item trace names the function that
// absorbed each query's stall.
//
//	go run ./examples/database
package main

import (
	"fmt"
	"io"
	"os"

	repro "repro"
	"repro/internal/stats"
	"repro/internal/workloads/dbsim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	res, err := dbsim.Run(dbsim.Config{Workers: 2, Reset: 2000}, dbsim.Mix(4000, 2026))
	if err != nil {
		return err
	}

	ids := res.SlowestFirst()
	us := make([]float64, len(ids))
	for i, id := range ids {
		us[i] = res.CyclesToMicros(res.Stats[id].Cycles)
	}
	s := stats.Summarize(us)
	fmt.Fprintf(w, "4000 queries on 2 workers:\n")
	fmt.Fprintf(w, "  mean %.1f us   stddev %.1f us (%.1fx mean)   p50 %.1f   p99 %.1f us (%.0fx p50)\n\n",
		s.Mean, s.Stddev, s.Stddev/s.Mean, s.P50, s.P99, s.P99/s.P50)

	a, err := repro.Integrate(res.Set, repro.Options{})
	if err != nil {
		return err
	}

	// Take the 8 slowest queries and name each one's dominant function.
	fmt.Fprintln(w, "slowest queries, diagnosed per data-item:")
	fmt.Fprintln(w, "query   kind    total(us)  dominant function     its time(us)  actual root cause")
	for _, id := range ids[:8] {
		st := res.Stats[id]
		it := a.Item(id)
		if it == nil {
			continue
		}
		var top repro.FuncSpan
		for _, fs := range it.Funcs {
			if fs.Cycles() > top.Cycles() {
				top = fs
			}
		}
		cause := "buffer-pool misses"
		switch {
		case st.Checkpointed:
			cause = "checkpoint flush"
		case st.Fsynced && st.Misses == 0:
			cause = "group-commit fsync"
		case st.Fsynced:
			cause = "misses + fsync"
		}
		topName := "-"
		topUs := 0.0
		if top.Fn != nil {
			topName = top.Fn.Name
			topUs = a.CyclesToMicros(top.Cycles())
		}
		fmt.Fprintf(w, "%5d   %-6s  %9.1f  %-20s  %12.1f  %s\n",
			id, st.Query.Kind, res.CyclesToMicros(st.Cycles), topName, topUs, cause)
	}

	fmt.Fprintln(w, "\nper-function fluctuation report (max/mean per item):")
	for _, row := range repro.FunctionReport(a) {
		fmt.Fprintf(w, "  %-22s mean %8.2f us   max %9.2f us   ratio %6.1f\n",
			row.Fn.Name, row.PerItemUs.Mean, row.PerItemUs.Max, row.FluctuationRatio)
	}
	return nil
}
