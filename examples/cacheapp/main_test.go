package main

import (
	"fmt"
	"strings"
)

// Example pins Fig. 8 and the by-hand query 1/2 lines: qapp's cost model,
// the simulator and the integration are deterministic, so a change to what
// the query application charges per point shows up here as a diff. Table
// cells are padded to their column width and an // Output: block cannot
// hold trailing blanks, so lines are printed with them trimmed.
func Example() {
	var out strings.Builder
	if err := run(&out); err != nil {
		panic(err)
	}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	// Output:
	// Fig. 8 — per-data-item elapsed time of each function (R=8000)
	//   legend: #=f1  ==f2  .=f3
	//   query  1 (n=3)  ....................................................... 162.12 us
	//   query  2 (n=3)  #==== 17.72 us
	//   query  3 (n=2)  = 6.75 us
	//   query  4 (n=3)  == 9.00 us
	//   query  5 (n=5)  #=.................................... 113.27 us
	//   query  6 (n=4)  #=== 13.50 us
	//   query  7 (n=5)  #=== 15.75 us
	//   query  8 (n=3)  #= 9.00 us
	//   query  9 (n=5)  #=== 15.75 us
	//   query 10 (n=2)  #=== 13.49 us
	//
	//   estimated vs true query latency
	//   query  n  est total us  true total us
	//   -----  -  ------------  -------------
	//   1      3  173.0         173.0
	//   2      3  21.2          21.2
	//   3      2  15.9          15.9
	//   4      3  17.5          17.5
	//   5      5  132.6         132.6
	//   6      4  26.3          26.3
	//   7      5  31.4          31.4
	//   8      3  21.0          21.0
	//   9      5  31.4          31.4
	//   10     2  16.2          16.2
	//
	//   fluctuating queries (outliers within same-n groups): [1 5] — the paper's 1st and 5th
	//
	// by hand: query 1 (cold) f3 = 159.9 us, query 2 (warm, same n) f3 = 0.0 us
	// the fluctuation is cache warmth: same query, different non-functional state
}
