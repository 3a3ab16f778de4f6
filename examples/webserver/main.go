// Webserver reproduces the motivating measurement of Fig. 2: an NGINX-like
// worker serving requests at ~149 µs each, with per-request elapsed time
// broken down across sixteen functions — most of them under 4 µs, which is
// why instrumenting every function is too heavy and the hybrid method
// exists.
//
//	go run ./examples/webserver
//	go run ./examples/webserver -requests 300000   # the paper's full count
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	requests := flag.Int("requests", 20000, "requests to serve")
	flag.Parse()
	if err := run(os.Stdout, *requests); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer, requests int) error {
	r, err := experiments.Fig2(requests)
	if err != nil {
		return err
	}
	r.Render(w)
	return nil
}
