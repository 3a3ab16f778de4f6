package main

import (
	"fmt"
	"strings"
)

// Example pins the Fig. 2 breakdown at the default 20,000 requests. The bar
// labels are padded to their column width and an // Output: block cannot
// hold trailing blanks, so lines are printed with them trimmed.
func Example() {
	var out strings.Builder
	if err := run(&out, 20000); err != nil {
		panic(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	// Output:
	// Fig. 2 — per-request elapsed time of each function of NGINX
	//   ngx_epoll_process_events          ############################################## 13.76 us
	//   ngx_writev                        ####################### 7.00 us
	//   ngx_http_static_handler           ############## 4.25 us
	//   ngx_http_process_request_headers  ############# 4.13 us
	//   ngx_event_accept                  ############# 4.00 us
	//   ngx_recv                          ########## 3.25 us
	//   ngx_open_cached_file              ######### 2.75 us
	//   ngx_http_process_request_line     ####### 2.37 us
	//   ngx_http_header_filter            ####### 2.25 us
	//   ngx_http_finalize_request         ####### 2.13 us
	//   ngx_http_output_filter            ##### 1.75 us
	//   ngx_http_log_handler              ##### 1.63 us
	//   ngx_http_find_location_config     #### 1.38 us
	//   ngx_http_parse_header_line        ### 1.12 us
	//   ngx_http_keepalive_handler        ### 1.00 us
	//   ngx_palloc                        ## 0.62 us
	//
	//   requests=20000  mean per-request time=159.4 us (paper: 149 us)
	//   functions under 4 us: 11 of 16 — instrumenting every function is too heavy
	//
	//   sampling-estimated vs true per-request time (validation)
	//   function                          true us  sampled us
	//   --------------------------------  -------  ----------
	//   ngx_epoll_process_events          13.76    13.76
	//   ngx_writev                        7.00     7.01
	//   ngx_http_static_handler           4.25     4.24
	//   ngx_http_process_request_headers  4.13     4.13
	//   ngx_event_accept                  4.00     4.00
	//   ngx_recv                          3.25     3.25
	//   ngx_open_cached_file              2.75     2.75
	//   ngx_http_process_request_line     2.37     2.37
	//   ngx_http_header_filter            2.25     2.25
	//   ngx_http_finalize_request         2.13     2.13
	//   ngx_http_output_filter            1.75     1.75
	//   ngx_http_log_handler              1.63     1.63
	//   ngx_http_find_location_config     1.38     1.38
	//   ngx_http_parse_header_line        1.12     1.12
	//   ngx_http_keepalive_handler        1.00     1.00
	//   ngx_palloc                        0.62     0.62
}
