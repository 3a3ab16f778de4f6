package main

import "os"

// Example pins the online pipeline's output: exactly two divergence dumps,
// at the flushed requests 170 and 340, and the persisted-sample share.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// DIVERGENCE item 170: table_lookup took 877040 cycles, 909% off the running mean 86883 — dumped 512 raw samples around it
	// DIVERGENCE item 340: table_lookup took 877040 cycles, 883% off the running mean 89181 — dumped 512 raw samples around it
	//
	// 500 requests, 6137 samples taken, 2 divergence dumps
	// raw samples persisted: 1024 of 6137 (16.7%) — the §IV-C3 volume reduction
}
