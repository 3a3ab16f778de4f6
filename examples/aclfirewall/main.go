// Aclfirewall reproduces the paper's realistic case study (§IV-C) at
// reduced scale: the DPDK-style RX→ACL→TX firewall with the Table III rule
// set (50,000 rules, 247 tries), traced with the hybrid method, rendered as
// Fig. 9 (estimation accuracy vs the instrumented baseline), Fig. 10
// (overhead vs reset value) and the §IV-C3 data-rate table.
//
//	go run ./examples/aclfirewall            # ~2000 packets, quick
//	go run ./examples/aclfirewall -packets 10000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	packets := flag.Int("packets", 2000, "packets per run")
	flag.Parse()
	if err := run(os.Stdout, *packets); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer, packets int) error {
	fmt.Fprintf(w, "compiling 50,000 rules into 247 tries and sweeping R over %v...\n\n", experiments.PaperResets)
	sweep, err := experiments.RunACLSweep(experiments.ACLSweepConfig{Packets: packets})
	if err != nil {
		return err
	}
	sweep.Fig9().Render(w)
	fmt.Fprintln(w)
	sweep.Fig10().Render(w)
	fmt.Fprintln(w)
	sweep.DataRate().Render(w)
	return nil
}
