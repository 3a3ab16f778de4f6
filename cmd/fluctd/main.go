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
	"io"
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Stdout, os.Args[1:])
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "fluctd:", err)
		os.Exit(1)
	}
}

// run parses args and serves until ctx is cancelled (or, with -drain, until
// the drain ends), then writes the final report to w: the fleet view, or
// the DrainReport as JSON.
func run(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fluctd", flag.ContinueOnError)
	var (
		listen       = fs.String("listen", "127.0.0.1:9000", "accept fluct -ship connections on this address")
		httpAd       = fs.String("http", "", "serve /metrics /healthz /fleet on this address (empty: no HTTP)")
		topK         = fs.Int("topk", 10, "how many fleet-wide slowest items the fleet view carries")
		ckpt         = fs.String("checkpoint", "", "checkpoint per-source state to this file (empty: acks are process-lifetime only)")
		ckptIv       = fs.Duration("checkpoint-interval", 30*time.Second, "also checkpoint on this timer (0: only on acks and shutdown)")
		idle         = fs.Duration("idle-timeout", 2*time.Minute, "disconnect shippers idle this long (0: never)")
		aggMode      = fs.Bool("aggregate", false, "run as the global aggregator: -listen accepts shard-collector uplinks, /fleet serves the merged cross-shard view")
		upAddr       = fs.String("upstream", "", "ship this collector's per-source fleet rows to a global aggregator at this address (two-tier shard mode)")
		upSpool      = fs.String("upstream-spool", "", "spool directory for the aggregator uplink (required with -upstream)")
		shardID      = fs.String("shard-id", "", "stable shard identity on the aggregator hop (default: the -listen address)")
		det          = fs.Bool("detect", false, "run the online fluctuation detector per source: /verdicts serves ranked root-cause verdicts and /healthz degrades while change events are unresolved")
		detSig       = fs.Float64("detect-sigma", 0, "detector firing threshold in robust sigmas (0: default 5)")
		detWin       = fs.Int("detect-window", 0, "detector change-point window in items (0: default 128)")
		drain        = fs.Bool("drain", false, "planned departure: hand every source's state to its post-departure ring owner, redirect shippers, print the DrainReport, and exit (non-zero if any handoff is left staged)")
		drainMembers = fs.String("members", "", "comma-separated membership table of dialable shard addresses, including this shard's -shard-id (required with -drain)")
		drainSpool   = fs.String("drain-spool", "", "spool directory staging the handoff durably before shipping (required with -drain; keep stable across drain retries)")
		drainWait    = fs.Duration("drain-wait", 30*time.Second, "per-destination delivery wait before the drain gives up and leaves the handoff staged")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *aggMode {
		if *upAddr != "" {
			return errors.New("-aggregate and -upstream are mutually exclusive: the aggregator is the top of the tier")
		}
		if *drain {
			return errors.New("-drain applies to shard collectors, not the aggregator")
		}
		return runAggregator(ctx, w, *listen, *httpAd, *topK, *ckpt, *ckptIv, *idle)
	}
	if *drain && (*drainMembers == "" || *drainSpool == "") {
		return errors.New("-drain requires -members (the full shard membership table) and -drain-spool")
	}
	id := *shardID
	if id == "" {
		id = *listen
	}

	// Two-tier shard mode: build the uplink first so the collector's
	// OnSummary hook can feed it.
	var uplink *agg.Uplink
	if *upAddr != "" {
		if *upSpool == "" {
			return errors.New("-upstream requires -upstream-spool: without a spool, a summary acked to a worker could die with the shard")
		}
		var err error
		uplink, err = agg.NewUplink(agg.UplinkConfig{
			Addr:     *upAddr,
			Shard:    id,
			SpoolDir: *upSpool,
		})
		if err != nil {
			return err
		}
		upCtx, upCancel := context.WithCancel(context.Background())
		upDone := make(chan error, 1)
		go func() { upDone <- uplink.Run(upCtx) }()
		defer func() {
			upCancel()
			<-upDone
		}()
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
		return err
	}
	d, err := start(*listen, *httpAd, *ckpt != "", *ckptIv, c.Serve, c.Handler(), c.Checkpoint)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fluctd: accepting shippers on %s\n", d.l.Addr())
	if d.srv != nil {
		fmt.Fprintf(os.Stderr, "fluctd: serving /metrics /healthz /fleet on http://%s\n", *httpAd)
	}

	if *drain {
		// Planned departure. The listener stays up throughout: sources being
		// moved answer their shippers with TRedirect, and after the handoff
		// completes the whole collector redirects every handshake, so
		// stragglers that slept through the drain still find the signpost.
		fmt.Fprintf(os.Stderr, "fluctd: draining shard %q out of membership %s\n", id, *drainMembers)
		report, err := agg.Drain(ctx, agg.DrainConfig{
			Collector: c,
			Self:      id,
			Members:   strings.Split(*drainMembers, ","),
			SpoolDir:  *drainSpool,
			ShipWait:  *drainWait,
			Uplink:    uplink,
		})
		if err != nil {
			d.stop()
			return err
		}
		enc, jerr := json.MarshalIndent(report, "", "  ")
		if jerr == nil {
			w.Write(append(enc, '\n'))
		}
		d.stop()
		if err := c.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fluctd:", err)
		}
		if !report.Complete() {
			return fmt.Errorf("drain incomplete — handoffs remain staged in %s; re-run -drain to retry", *drainSpool)
		}
		return nil
	}

	if err := d.wait(ctx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "fluctd: stopping — final fleet report:")
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
	}
	c.Fleet().Render(w)
	return nil
}

// runAggregator is the -aggregate main loop: the same daemon shape with
// the aggregator in the collector's seat.
func runAggregator(ctx context.Context, w io.Writer, listen, httpAd string, topK int, ckpt string, ckptIv, idle time.Duration) error {
	a, err := agg.New(agg.Config{
		TopK:           topK,
		CheckpointPath: ckpt,
		IdleTimeout:    idle,
	})
	if err != nil {
		return err
	}
	d, err := start(listen, httpAd, ckpt != "", ckptIv, a.Serve, a.Handler(), a.Checkpoint)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fluctd: aggregating shard uplinks on %s\n", d.l.Addr())
	if d.srv != nil {
		fmt.Fprintf(os.Stderr, "fluctd: serving merged /metrics /healthz /fleet on http://%s\n", httpAd)
	}
	if err := d.wait(ctx); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "fluctd: stopping — final merged fleet report:")
	if err := a.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "fluctd:", err)
	}
	a.Fleet().Render(w)
	return nil
}

// daemon is what both modes run: the stream listener, the optional HTTP
// server, and the checkpoint timer.
type daemon struct {
	l    net.Listener
	srv  *http.Server  // nil without -http
	errc chan error    // a server that stopped on its own
	done chan struct{} // closed by stop
}

// start listens on listen and serves it with serve, serves h on httpAd
// when set, and with checkpointing on calls checkpoint every ckptIv.
func start(listen, httpAd string, checkpointing bool, ckptIv time.Duration,
	serve func(net.Listener) error, h http.Handler, checkpoint func() error) (*daemon, error) {
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, err
	}
	d := &daemon{l: l, errc: make(chan error, 2), done: make(chan struct{})}
	go func() { d.errc <- serve(l) }()
	if httpAd != "" {
		hl, err := net.Listen("tcp", httpAd)
		if err != nil {
			l.Close()
			return nil, err
		}
		d.srv = &http.Server{Handler: h}
		go func() { d.errc <- d.srv.Serve(hl) }()
	}
	if checkpointing && ckptIv > 0 {
		go func() {
			t := time.NewTicker(ckptIv)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := checkpoint(); err != nil {
						fmt.Fprintln(os.Stderr, "fluctd:", err)
					}
				case <-d.done:
					return
				}
			}
		}()
	}
	return d, nil
}

// wait blocks until ctx is cancelled, then stops the daemon; a server that
// fails first stops it too and returns its error.
func (d *daemon) wait(ctx context.Context) error {
	select {
	case err := <-d.errc:
		d.stop()
		return err
	case <-ctx.Done():
		d.stop()
		return nil
	}
}

// stop closes the listener and the HTTP server and ends the checkpoint
// timer; live shipper connections are the caller's to close.
func (d *daemon) stop() {
	d.l.Close()
	if d.srv != nil {
		d.srv.Close()
	}
	close(d.done)
}
