// Command fluct runs the paper's experiments and prints the corresponding
// tables and figures.
//
// Usage:
//
//	fluct -exp fig9 -packets 10000
//	fluct -exp all
//	fluct -serve 127.0.0.1:8080
//	fluct -ship 127.0.0.1:9000 -source worker-1 -rounds 5
//
// Experiments: fig1, fig2, fig4, fig8, fig9, fig10, datarate, faultsweep,
// detectsweep, dpsweep, all.
//
// -workload selects what -serve and -ship rounds run: "request" (the
// canonical lookup+render loop) or "dataplane" (the compiled ACL → LPM
// function chain), e.g.
//
//	fluct -serve 127.0.0.1:8080 -workload dataplane -detect
//
// -faults degrades those rounds (faults.ParsePlan syntax): its trace keys
// perturb every round's trace set ('loss=0.3,burst=64'; an injected
// slowdown is 'fnslow=table_lookup,fnfactor=2,fnafter=0.5'), its net* keys
// damage the link the round ships over ('net=cutframe,netrate=0.2').
//
// With -serve, fluct is a one-source fluctd in one process: it ships
// workload rounds continuously, as source "serve", to an in-process
// collector on a loopback port and serves that collector's HTTP surface:
// /metrics (Prometheus text), /debug/vars (expvar), /debug/pprof/*,
// /fleet, /verdicts and /healthz (the fleet verdict fluctd serves). -detect
// runs the online fluctuation detector over the item stream — /healthz
// then also degrades while change events are unresolved, and /verdicts
// names the function to blame.
//
// With -ship, fluct becomes a fleet worker: each workload round's trace set
// is shipped over TCP to a fluctd collector instead of being integrated
// locally. -source names this worker in the collector's fleet view, and
// -rounds bounds the run (0 runs until interrupted).
// Delivery is at-least-once either way — every frame is held until the
// collector acknowledges it. Without -spool it is held in memory, for the
// life of this process; add -spool <dir> and frames are written through a
// disk-backed spool and retransmitted across crashes and restarts too.
//
// Against a two-tier fleet, -ship takes the comma-separated shard
// collector membership list; the worker consistent-hashes its source ID
// over the list and ships to the shard that owns it — every worker with
// the same list picks the same owner, no coordinator involved:
//
//	fluct -ship 10.0.0.1:9000,10.0.0.2:9000,10.0.0.3:9000 -source worker-1
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/agg"
	"repro/internal/collector"
	"repro/internal/detect"
	"repro/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run: fig1|fig2|fig4|fig8|fig9|fig10|datarate|faultsweep|detectsweep|dpsweep|all")
		packets   = flag.Int("packets", 10000, "packets per ACL run (figs 9/10, data rate)")
		requests  = flag.Int("requests", 20000, "requests for the NGINX workload (fig 2)")
		resets    = flag.String("resets", "", "comma-separated reset values overriding the paper's sweep")
		out       = flag.String("out", "", "write output to this file instead of stdout")
		serve     = flag.String("serve", "", "run a one-source fluctd on this address (e.g. 127.0.0.1:8080): ship rounds to an in-process collector and serve its /metrics, /healthz, /fleet and /verdicts instead of running experiments")
		srvDet    = flag.Bool("detect", false, "with -serve: run the online fluctuation detector (/healthz degrades on unresolved change events)")
		shipAddr  = flag.String("ship", "", "ship workload rounds to a fluctd collector instead of running experiments; a comma-separated list is a shard membership table and the worker ships to the shard owning its source ID")
		source    = flag.String("source", "", "source ID for -ship (default: hostname-pid)")
		rounds    = flag.Int("rounds", 0, "rounds to ship with -ship (0: until interrupted)")
		faultSpec = flag.String("faults", "", "fault spec for -serve/-ship rounds: trace keys perturb each round's set (e.g. 'loss=0.2,burst=64'), net* keys damage its link (e.g. 'net=cutframe,netrate=0.2')")
		spool     = flag.String("spool", "", "spool -ship frames through this directory so at-least-once delivery survives restarts of this worker (empty: unacknowledged frames are held in memory, for the life of the process)")
		workload  = flag.String("workload", "request", "workload behind -serve/-ship rounds: request|dataplane")
	)
	flag.Parse()

	// -requests only overrides a -ship/-serve round's default (300) when
	// the user passed it explicitly; the experiment default of 20000 would
	// make rounds needlessly slow.
	reqs := 0
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "requests" {
			reqs = *requests
		}
	})
	if *shipAddr != "" {
		if err := runShip(*shipAddr, *source, *rounds, reqs, *workload, *faultSpec, *spool); err != nil {
			fatal(err)
		}
		return
	}
	if *serve != "" {
		if err := runServe(*serve, reqs, *workload, *faultSpec, *srvDet); err != nil {
			fatal(err)
		}
		return
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	var resetList []uint64
	if *resets != "" {
		for _, s := range strings.Split(*resets, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 64)
			if err != nil {
				fatal(fmt.Errorf("bad reset value %q: %w", s, err))
			}
			resetList = append(resetList, v)
		}
	}

	if err := runExperiments(w, *exp, *packets, *requests, resetList); err != nil {
		fatal(err)
	}
}

// runExperiments renders experiment exp ("all" for every one) to w: ACL
// sweeps at packets per run, the NGINX workload at requests, and the
// paper's reset sweep unless resets overrides it.
func runExperiments(w io.Writer, exp string, packets, requests int, resets []uint64) error {
	want := func(name string) bool { return exp == "all" || exp == name }
	ran := false

	if want("fig1") {
		ran = true
		r, err := experiments.Fig1()
		if err != nil {
			return err
		}
		r.Render(w)
		fmt.Fprintln(w)
	}
	if want("fig2") {
		ran = true
		r, err := experiments.Fig2(requests)
		if err != nil {
			return err
		}
		r.Render(w)
		fmt.Fprintln(w)
	}
	if want("fig4") {
		ran = true
		r, err := experiments.Fig4(experiments.Fig4Config{Resets: resets})
		if err != nil {
			return err
		}
		r.Render(w)
		fmt.Fprintln(w)
	}
	if want("fig8") {
		ran = true
		r, err := experiments.Fig8()
		if err != nil {
			return err
		}
		r.Render(w)
		fmt.Fprintln(w)
	}
	if want("fig9") || want("fig10") || want("datarate") {
		ran = true
		sweep, err := experiments.RunACLSweep(experiments.ACLSweepConfig{
			Packets: packets,
			Resets:  resets,
		})
		if err != nil {
			return err
		}
		if want("fig9") {
			sweep.Fig9().Render(w)
			fmt.Fprintln(w)
		}
		if want("fig10") {
			sweep.Fig10().Render(w)
			fmt.Fprintln(w)
		}
		if want("datarate") {
			sweep.DataRate().Render(w)
			fmt.Fprintln(w)
		}
	}
	if want("faultsweep") {
		ran = true
		r, err := experiments.FaultSweep(nil)
		if err != nil {
			return err
		}
		r.Render(w)
		fmt.Fprintln(w)
		n, err := experiments.NetSweep(nil)
		if err != nil {
			return err
		}
		n.Render(w)
		fmt.Fprintln(w)
		cr, err := experiments.CrashSweep(nil)
		if err != nil {
			return err
		}
		cr.Render(w)
		fmt.Fprintln(w)
	}
	if want("detectsweep") {
		ran = true
		r, err := experiments.DetectSweep(experiments.DetectSweepConfig{})
		if err != nil {
			return err
		}
		r.Render(w)
		fmt.Fprintln(w)
	}
	if want("dpsweep") {
		ran = true
		r, err := experiments.DPSweep(experiments.DPSweepConfig{})
		if err != nil {
			return err
		}
		r.Render(w)
		fmt.Fprintln(w)
	}
	if want("secvc") {
		ran = true
		r, err := experiments.SecVC("gcc", nil)
		if err != nil {
			return err
		}
		r.Render(w)
		fmt.Fprintln(w)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want fig1|fig2|fig4|fig8|fig9|fig10|datarate|faultsweep|detectsweep|dpsweep|secvc|all)", exp)
	}
	return nil
}

// runShip runs the fleet-worker loop: generate rounds, ship each round's
// trace set to the collector, print the delivery stats. Ctrl-C ends the run
// gracefully (queued frames drain before exit).
func runShip(addr, source string, rounds, requests int, workload, faultSpec, spoolDir string) error {
	if source == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		source = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if shards := strings.Split(addr, ","); len(shards) > 1 {
		// Two-tier fleet: the address is the shard membership table. Hash
		// the source over it so every worker (and the rebalance tooling)
		// agrees on the owner without a coordinator.
		for i := range shards {
			shards[i] = strings.TrimSpace(shards[i])
		}
		addr = agg.NewRing(shards...).Owner(source)
		fmt.Fprintf(os.Stderr, "fluct: %d-shard membership table, %q hashes to %s\n",
			len(shards), source, addr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "fluct: shipping rounds to %s as %q\n", addr, source)
	st, err := experiments.ShipRounds(ctx, experiments.ShipConfig{
		Addr:     addr,
		Source:   source,
		Rounds:   rounds,
		Requests: requests,
		Workload: workload,
		Faults:   faultSpec,
		SpoolDir: spoolDir,
	})
	st.Render(os.Stdout)
	if err != nil && ctx.Err() != nil {
		return nil // interrupted: the stats line is the exit report
	}
	return err
}

// runServe runs a one-source fluctd in this process: rounds ship forever,
// as source "serve", to a collector on a loopback port whose HTTP surface
// is served on addr.
func runServe(addr string, requests int, workload, faultSpec string, detectOn bool) error {
	var cfg collector.Config
	if detectOn {
		cfg.Detect = &detect.Config{}
	}
	coll, l, err := experiments.StartCollector(cfg)
	if err != nil {
		return err
	}
	defer l.Close()
	errc := make(chan error, 2)
	go func() {
		_, err := experiments.ShipRounds(context.Background(), experiments.ShipConfig{
			Addr:     l.Addr().String(),
			Source:   "serve",
			Requests: requests,
			Workload: workload,
			Faults:   faultSpec,
		})
		errc <- err
	}()
	fmt.Fprintf(os.Stderr, "fluct: serving /metrics /healthz /fleet /verdicts /debug/vars /debug/pprof/ on http://%s\n", addr)
	go func() { errc <- http.ListenAndServe(addr, coll.Handler()) }()
	return <-errc
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fluct:", err)
	os.Exit(1)
}
