package main

import "os"

// Example pins the whole report: the workload mix, the simulator and the
// integration are deterministic, and queries with equal totals list in
// query ID order, so any diff here is a behaviour change.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// 4000 queries on 2 workers:
	//   mean 119.6 us   stddev 363.3 us (3.0x mean)   p50 7.2   p99 2248.1 us (312x p50)
	//
	// slowest queries, diagnosed per data-item:
	// query   kind    total(us)  dominant function     its time(us)  actual root cause
	//  1851   scan       3065.1  buf_fetch_page              3060.1  buffer-pool misses
	//  2028   scan       3064.9  buf_fetch_page              3059.1  buffer-pool misses
	//   200   scan       3064.0  buf_fetch_page              3059.2  buffer-pool misses
	//  3928   scan       2964.2  buf_fetch_page              2958.4  buffer-pool misses
	//   902   scan       2963.2  buf_fetch_page              2957.5  buffer-pool misses
	//     4   scan       2962.1  buf_fetch_page              2956.6  buffer-pool misses
	//  1046   scan       2962.1  buf_fetch_page              2957.4  buffer-pool misses
	//    24   scan       2962.1  buf_fetch_page              2856.5  buffer-pool misses
	//
	// per-function fluctuation report (max/mean per item):
	//   buf_flush_checkpoint   mean     1.10 us   max    546.75 us   ratio  495.2
	//   wal_append             mean     5.19 us   max    150.75 us   ratio   29.1
	//   buf_fetch_page         mean   107.29 us   max   3060.06 us   ratio   28.5
	//   parse_query            mean     1.19 us   max      6.50 us   ratio    5.4
	//   btr_index_lookup       mean     2.69 us   max     11.51 us   ratio    4.3
	//   row_apply_update       mean     3.45 us   max     11.51 us   ratio    3.3
	//   net_send_result        mean     6.67 us   max     11.51 us   ratio    1.7
}
