package main

import "os"

// Example pins the register-based reconstruction of the three interleaved
// items: the scheduler and the sampler are deterministic.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// scheduler: 27 context switches, slices per item: map[101:12 102:6 103:9]
	//
	// item  window(us)        samples  est-from-samples(us)  true(us)
	//  101  [    0.5,  206.0]      120                  90.0      90.0
	//  102  [    8.0,  129.5]       60                  45.0      45.0
	//  103  [   15.5,  182.8]       90                  67.5      67.5
	//
	// note the overlapping [begin,end] windows: the items interleave on the core,
	// yet every sample still maps to the right item via r13
}
