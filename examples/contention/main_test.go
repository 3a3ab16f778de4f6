package main

import "os"

// Example pins the contention report: the memory penalty window, the cache
// model and the integration are deterministic.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// identical packets, two non-functional states:
	//   quiet:     22.8 us/packet
	//   contended: 32.8 us/packet  (throughput drop 31%)
	//
	// where the time went (per-data-item function estimates):
	//   fib_lookup:  quiet 13.7 us -> contended 21.3 us   <= absorbs the contention
	//   hdr_rewrite: quiet 3.8 us -> contended 3.8 us   <= compute-bound, unaffected
}
