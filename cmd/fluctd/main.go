// Command fluctd is the fleet collector daemon: it accepts trace streams
// from fluct -ship workers over the wire protocol, integrates each stream
// with a per-source StreamIntegrator, and serves the merged fleet view.
//
// Usage:
//
//	fluctd -listen 127.0.0.1:9000 -http 127.0.0.1:9001 \
//	       -checkpoint /var/lib/fluctd/checkpoint.json
//
// Shippers connect to -listen; operators scrape -http:
//
//	/metrics     collector self-telemetry (Prometheus text)
//	/healthz     fleet verdict (degraded when any source shows loss,
//	             or — with -detect — while change events are unresolved)
//	/fleet       the merged cross-host view as JSON
//	/verdicts    active fluctuation events + ranked root-cause verdicts
//	/debug/...   expvar + pprof
//
// With -detect, every source additionally runs the online fluctuation
// detector (internal/detect): a streaming change-point scan over per-item
// latency whose ranked function/core verdicts surface on /verdicts, in
// the fleet view, and in the /healthz "detect" condition. In two-tier
// mode each shard ships its verdict snapshots upstream, so the
// aggregator's /verdicts is fleet-wide.
//
// With -checkpoint set, delivery acknowledgements become durable: the
// per-source state is checkpointed (atomic rename) before every ack, on
// the -checkpoint-interval timer, and once more on shutdown, and the next
// start restores from the file — a daemon bounce keeps /fleet populated
// and never re-integrates an acknowledged set.
//
// # Two-tier mode
//
// A fleet too large for one collector splits into shard collectors
// feeding one global aggregator:
//
//	fluctd -aggregate -listen 127.0.0.1:9100 -http 127.0.0.1:9101 \
//	       -checkpoint /var/lib/fluctd/agg.json
//
//	fluctd -listen 127.0.0.1:9000 -shard-id shard-a \
//	       -upstream 127.0.0.1:9100 -upstream-spool /var/lib/fluctd/uplink \
//	       -checkpoint /var/lib/fluctd/shard-a.json
//
// -aggregate runs the daemon as the global aggregator: -listen accepts
// shard-collector uplinks (not worker shippers), and /fleet and /metrics
// serve the merged cross-shard view. With -upstream, a shard collector
// ships every source's refreshed fleet row to the aggregator over the
// same sequenced, acked, spool-backed hop workers use — -upstream-spool
// is mandatory so a summary survives a shard bounce between being acked
// to a worker and being delivered upstream. -shard-id is the shard's
// stable identity on that hop (it must match the membership table workers
// hash against; defaults to the -listen address).
//
// # Planned drain
//
// A shard collector leaves the fleet gracefully with -drain: the daemon
// starts normally, then hands every source's state — checkpoint row,
// detector baseline, verdicts, and (epoch, seq) dedup watermark — to its
// new owner under the post-departure membership, redirects the source's
// shippers there, and exits once everything is acknowledged:
//
//	fluctd -listen 127.0.0.1:9000 -shard-id 127.0.0.1:9000 \
//	       -upstream 127.0.0.1:9100 -upstream-spool /var/lib/fluctd/uplink \
//	       -checkpoint /var/lib/fluctd/shard-a.json \
//	       -drain -members 127.0.0.1:9000,127.0.0.1:9010,127.0.0.1:9020 \
//	       -drain-spool /var/lib/fluctd/drain
//
// -members is the full membership table of dialable shard addresses,
// including this shard's own -shard-id; destinations are computed over
// the post-departure ring, so workers hashing the same table agree on
// every source's new owner. The handoff is staged durably in -drain-spool
// before shipping: if a destination is unreachable (the drain exits
// non-zero) or the daemon crashes mid-drain (sources restart frozen from
// the checkpoint), re-running the same -drain command replays the staged
// state, and the receiver recognizes replays as duplicates. The drain's
// progress is visible on /healthz ("draining", then "departed")
// throughout, and the final DrainReport is printed as JSON on stdout.
//
// On SIGINT/SIGTERM the daemon writes a final checkpoint (when
// configured), prints a final fleet report to stdout, and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/agg"
	"repro/internal/collector"
	"repro/internal/detect"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:9000", "accept fluct -ship connections on this address")
		httpAd       = flag.String("http", "", "serve /metrics /healthz /fleet on this address (empty: no HTTP)")
		topK         = flag.Int("topk", 10, "how many fleet-wide slowest items the fleet view carries")
		ckpt         = flag.String("checkpoint", "", "checkpoint per-source state to this file (empty: acks are process-lifetime only)")
		ckptIv       = flag.Duration("checkpoint-interval", 30*time.Second, "also checkpoint on this timer (0: only on acks and shutdown)")
		idle         = flag.Duration("idle-timeout", 2*time.Minute, "disconnect shippers idle this long (0: never)")
		aggMode      = flag.Bool("aggregate", false, "run as the global aggregator: -listen accepts shard-collector uplinks, /fleet serves the merged cross-shard view")
		upAddr       = flag.String("upstream", "", "ship this collector's per-source fleet rows to a global aggregator at this address (two-tier shard mode)")
		upSpool      = flag.String("upstream-spool", "", "spool directory for the aggregator uplink (required with -upstream)")
		shardID      = flag.String("shard-id", "", "stable shard identity on the aggregator hop (default: the -listen address)")
		det          = flag.Bool("detect", false, "run the online fluctuation detector per source: /verdicts serves ranked root-cause verdicts and /healthz degrades while change events are unresolved")
		detSig       = flag.Float64("detect-sigma", 0, "detector firing threshold in robust sigmas (0: default 5)")
		detWin       = flag.Int("detect-window", 0, "detector change-point window in items (0: default 128)")
		drain        = flag.Bool("drain", false, "planned departure: hand every source's state to its post-departure ring owner, redirect shippers, print the DrainReport, and exit (non-zero if any handoff is left staged)")
		drainMembers = flag.String("members", "", "comma-separated membership table of dialable shard addresses, including this shard's -shard-id (required with -drain)")
		drainSpool   = flag.String("drain-spool", "", "spool directory staging the handoff durably before shipping (required with -drain; keep stable across drain retries)")
		drainWait    = flag.Duration("drain-wait", 30*time.Second, "per-destination delivery wait before the drain gives up and leaves the handoff staged")
	)
	flag.Parse()

	if *aggMode {
		if *upAddr != "" {
			fatal(errors.New("-aggregate and -upstream are mutually exclusive: the aggregator is the top of the tier"))
		}
		if *drain {
			fatal(errors.New("-drain applies to shard collectors, not the aggregator"))
		}
		runAggregator(*listen, *httpAd, *topK, *ckpt, *ckptIv, *idle)
		return
	}
	if *drain && (*drainMembers == "" || *drainSpool == "") {
		fatal(errors.New("-drain requires -members (the full shard membership table) and -drain-spool"))
	}

	// Two-tier shard mode: build the uplink first so the collector's
	// OnSummary hook can feed it.
	var uplink *agg.Uplink
	var uplinkDone chan error
	uplinkCancel := func() {}
	if *upAddr != "" {
		if *upSpool == "" {
			fatal(errors.New("-upstream requires -upstream-spool: without a spool, a summary acked to a worker could die with the shard"))
		}
		id := *shardID
		if id == "" {
			id = *listen
		}
		var err error
		uplink, err = agg.NewUplink(agg.UplinkConfig{
			Addr:     *upAddr,
			Shard:    id,
			SpoolDir: *upSpool,
		})
		if err != nil {
			fatal(err)
		}
		var ctx context.Context
		ctx, uplinkCancel = context.WithCancel(context.Background())
		uplinkDone = make(chan error, 1)
		go func() { uplinkDone <- uplink.Run(ctx) }()
		fmt.Fprintf(os.Stderr, "fluctd: shipping fleet rows to aggregator %s as shard %q\n", *upAddr, id)
	}

	cfg := collector.Config{
		TopK:           *topK,
		CheckpointPath: *ckpt,
		IdleTimeout:    *idle,
	}
	if *det {
		cfg.Detect = &detect.Config{Sigma: *detSig, Window: *detWin}
	}
	if uplink != nil {
		cfg.OnSummary = uplink.OnSummary
		cfg.OnVerdicts = uplink.OnVerdicts
	}
	c, err := collector.New(cfg)
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fluctd: accepting shippers on %s\n", l.Addr())

	errc := make(chan error, 2)
	go func() { errc <- c.Serve(l) }()
	if *httpAd != "" {
		fmt.Fprintf(os.Stderr, "fluctd: serving /metrics /healthz /fleet on http://%s\n", *httpAd)
		go func() { errc <- http.ListenAndServe(*httpAd, c.Handler()) }()
	}
	if *ckpt != "" && *ckptIv > 0 {
		go func() {
			t := time.NewTicker(*ckptIv)
			defer t.Stop()
			for range t.C {
				if err := c.Checkpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "fluctd:", err)
				}
			}
		}()
	}

	if *drain {
		// Planned departure. The listener stays up throughout: sources being
		// moved answer their shippers with TRedirect, and after the handoff
		// completes the whole collector redirects every handshake, so
		// stragglers that slept through the drain still find the signpost.
		id := *shardID
		if id == "" {
			id = *listen
		}
		fmt.Fprintf(os.Stderr, "fluctd: draining shard %q out of membership %s\n", id, *drainMembers)
		report, err := agg.Drain(context.Background(), agg.DrainConfig{
			Collector: c,
			Self:      id,
			Members:   strings.Split(*drainMembers, ","),
			SpoolDir:  *drainSpool,
			ShipWait:  *drainWait,
			Uplink:    uplink,
		})
		if err != nil {
			fatal(err)
		}
		enc, jerr := json.MarshalIndent(report, "", "  ")
		if jerr == nil {
			os.Stdout.Write(append(enc, '\n'))
		}
		l.Close()
		if err := c.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fluctd:", err)
		}
		uplinkCancel()
		if uplinkDone != nil {
			<-uplinkDone
		}
		if !report.Complete() {
			fmt.Fprintf(os.Stderr, "fluctd: drain incomplete — handoffs remain staged in %s; re-run -drain to retry\n", *drainSpool)
			os.Exit(1)
		}
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			fatal(err)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "fluctd: %v — final fleet report:\n", s)
	}
	l.Close()
	if err := c.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "fluctd:", err)
	}
	if uplink != nil {
		// Best-effort flush of spooled summaries; whatever does not make
		// it upstream now replays from the spool on the next start.
		drainCtx, dc := context.WithTimeout(context.Background(), 10*time.Second)
		if err := uplink.Drain(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "fluctd: uplink: %d summaries left spooled for next start\n", uplink.PendingFrames())
		}
		dc()
		uplinkCancel()
		<-uplinkDone
	}
	c.Fleet().Render(os.Stdout)
}

// runAggregator is the -aggregate main loop: the same daemon shape with
// the aggregator in the collector's seat.
func runAggregator(listen, httpAd string, topK int, ckpt string, ckptIv, idle time.Duration) {
	a, err := agg.New(agg.Config{
		TopK:           topK,
		CheckpointPath: ckpt,
		IdleTimeout:    idle,
	})
	if err != nil {
		fatal(err)
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fluctd: aggregating shard uplinks on %s\n", l.Addr())

	errc := make(chan error, 2)
	go func() { errc <- a.Serve(l) }()
	if httpAd != "" {
		fmt.Fprintf(os.Stderr, "fluctd: serving merged /metrics /healthz /fleet on http://%s\n", httpAd)
		go func() { errc <- http.ListenAndServe(httpAd, a.Handler()) }()
	}
	if ckpt != "" && ckptIv > 0 {
		go func() {
			t := time.NewTicker(ckptIv)
			defer t.Stop()
			for range t.C {
				if err := a.Checkpoint(); err != nil {
					fmt.Fprintln(os.Stderr, "fluctd:", err)
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		if err != nil {
			fatal(err)
		}
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "fluctd: %v — final merged fleet report:\n", s)
	}
	l.Close()
	if err := a.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "fluctd:", err)
	}
	a.Fleet().Render(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fluctd:", err)
	os.Exit(1)
}
