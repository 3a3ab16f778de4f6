package main

import (
	"fmt"
	"strings"
)

// Example pins the case study's whole output at the default 2,000 packets:
// the compiled Table III classifier, its timing model and the traced
// firewall are deterministic, so any change to the trie layout, the walk or
// the cost it charges shows up here as a diff. Table cells are padded to
// their column width and an // Output: block cannot hold trailing blanks,
// so lines are printed with them trimmed.
func Example() {
	var out strings.Builder
	if err := run(&out, 2000); err != nil {
		panic(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	// Output:
	// compiling 50,000 rules into 247 tries and sweeping R over [8000 12000 16000 20000 24000]...
	//
	// Fig. 9 — estimated per-packet elapsed time of rte_acl_classify (mean ± std, us)
	//   reset     type A                 type B                 type C
	//   --------  ---------------------  ---------------------  --------------------
	//   8000      13.53 ± 1.42 (n=667)  10.89 ± 0.93 (n=667)  4.88 ± 0.77 (n=666)
	//   12000     11.93 ± 1.61 (n=667)  9.57 ± 1.40 (n=667)   3.62 ± 0.97 (n=666)
	//   16000     10.92 ± 1.57 (n=667)  8.29 ± 1.66 (n=667)   4.33 ± 0.00 (n=406)
	//   20000     10.16 ± 2.21 (n=667)  7.38 ± 2.08 (n=667)   5.35 ± 0.00 (n=161)
	//   24000     8.76 ± 2.28 (n=667)   6.28 ± 2.08 (n=667)   6.37 ± 0.00 (n=42)
	//   baseline  13.42 ± 1.36 (n=667)  11.06 ± 0.00 (n=667)  6.45 ± 0.00 (n=666)
	//
	//   performance fluctuates by more than 100%: type A 13.4 us vs type C 6.4 us (2.1x)
	//
	// Fig. 10 — overhead of the method (latency increase) per reset value
	//   reset  overhead us  samples/packet
	//   -----  -----------  --------------
	//   8000   2.88         11.2
	//   12000  2.04         7.9
	//   16000  1.58         6.1
	//   20000  1.30         5.0
	//   24000  1.10         4.2
	//
	//   unprofiled mean latency L* = 10.80 us; overhead falls as R grows
	//
	// §IV-C3 — PEBS sample volume (paper: 270/194/153/125/106 MB/s for R=8k..24k)
	//   reset  MB/s per core  GB/s per 16-core CPU  % of 127.8 GB/s mem BW
	//   -----  -------------  --------------------  ----------------------
	//   8000   108            1.7                   1.3
	//   12000  76             1.2                   0.9
	//   16000  58             0.9                   0.7
	//   20000  48             0.8                   0.6
	//   24000  40             0.6                   0.5
}
