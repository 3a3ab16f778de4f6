package main

import "os"

// Example pins the per-item miss estimates: the cache model and the
// LLC-miss sampler are deterministic, so any diff is a behaviour change.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// item  function    est. LLC misses
	//    1  scan_table           262144
	//    2  scan_table             1024
	//
	// both items ran the same function; the miss counts expose the cold scan
}
