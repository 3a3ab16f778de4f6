// Cacheapp reproduces the paper's proof-of-concept (§IV-B, Figs. 7 and 8)
// end to end: the two-thread query application with a memoizing point
// cache, traced with the hybrid method at R=8000, rendered as Fig. 8's
// per-query stacked f1/f2/f3 bars.
//
//	go run ./examples/cacheapp
package main

import (
	"fmt"
	"io"
	"os"

	repro "repro"
	"repro/internal/experiments"
	"repro/internal/workloads/qapp"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// The canned Fig. 8 harness...
	fig8, err := experiments.Fig8()
	if err != nil {
		return err
	}
	fig8.Render(w)

	// ...and the same analysis done by hand against the public API, to
	// show what the harness does: run the app, integrate, inspect.
	res, err := qapp.Run(qapp.Config{Reset: 8000}, qapp.PaperQuerySequence())
	if err != nil {
		return err
	}
	analysis, err := repro.Integrate(res.Set, repro.Options{})
	if err != nil {
		return err
	}
	cold := analysis.Item(1)
	warm := analysis.Item(2)
	fmt.Fprintf(w, "\nby hand: query 1 (cold) f3 = %.1f us, query 2 (warm, same n) f3 = %.1f us\n",
		analysis.CyclesToMicros(cold.Func(qapp.FnF3).Cycles()),
		analysis.CyclesToMicros(warm.Func(qapp.FnF3).Cycles()))
	fmt.Fprintln(w, "the fluctuation is cache warmth: same query, different non-functional state")
	return nil
}
