package main

import "os"

// Example pins the report: the route table, the timing model and the
// integration are deterministic, so a change to a lookup's walk or to the
// cost its meter charges shows up here as a diff.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// rte_lpm_lookup per packet (64 lookups each), table 259 routes / 1 pages:
	//   aggregate-covered (1 probe):  n=200 mean=2.562 sd=0.000 min=2.562 p50=2.562 p99=2.562 max=2.562
	//   customer-covered  (2 probes): n=200 mean=4.368 sd=0.150 min=4.070 p50=4.440 p99=4.589 max=4.589
	//
	// same function, same packet rate — the route depth is the non-functional state
}
