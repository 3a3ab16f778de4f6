package main

import "os"

// Example pins the per-item table and the flagged cold item.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// item  total(us)  parse(us)  handle(us)  respond(us)
	//    1      53.08       0.00       48.75         0.00
	//    2       8.32       0.00        3.75         1.25
	//    3       8.07       0.00        3.75         0.00
	//    4       8.07       0.00        3.75         0.00
	//    5       8.32       0.00        3.75         1.25
	//    6       8.07       0.00        3.75         0.00
	//    7       8.07       0.00        3.75         0.00
	//    8       8.32       0.00        3.75         1.25
	//
	// fluctuation: item 1 took 53.1 us vs group median ~8.2 us — handle() ran cold
}
