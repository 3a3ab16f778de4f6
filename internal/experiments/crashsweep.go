package experiments

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/ship"
)

// CrashSweepRow is one rung of the crash ladder: a fixed run of workload
// rounds shipped by a spooled shipper while the collector daemon is killed
// and restarted from its checkpoint the given number of times.
type CrashSweepRow struct {
	// Kills is how many times the collector was killed mid-run (listener
	// closed, connections severed, process state abandoned, successor
	// restored from the checkpoint file).
	Kills int
	// SetsGenerated / SetsDelivered compare what the shipper produced with
	// what the final collector incarnation accounts for. At-least-once
	// delivery demands equality on every rung.
	SetsGenerated  int
	SetsDelivered  uint64
	ItemsGenerated int
	ItemsDelivered int
	// LostRecords counts markers+samples declared by a SetEnd but never
	// received; AbortedSets counts sets the collector gave up on. Both must
	// stay zero: crash recovery replays from a set boundary, so no set is
	// ever half-seen.
	LostRecords uint64
	AbortedSets uint64
	// ReportExact reports whether the final incarnation's rendered report is
	// byte-identical to the report an uninterrupted crash-free ship of the
	// same rounds produces. (The stream path grades confidence causally, so
	// the crash-free ship — not an offline core.Integrate — is the correct
	// baseline for what crashes must not change.)
	ReportExact bool
	// Elapsed is wall-clock and deliberately not rendered (the experiment
	// suite is byte-diffed across runs).
	Elapsed time.Duration
}

// CrashSweepResult is the durability experiment: the delivery pipeline is
// subjected to collector crashes of increasing frequency, and the claim
// under test is the at-least-once contract — spool + acked delivery +
// checkpoints make every rung's final accounting identical to the
// crash-free rung's.
type CrashSweepResult struct {
	Rounds   int
	Requests int
	Rows     []CrashSweepRow
}

// CrashSweep runs one rung per kill count. Each rung ships the same
// deterministic rounds through a fresh spool directory and checkpoint file,
// and is compared byte-for-byte against a crash-free baseline ship.
func CrashSweep(kills []int) (*CrashSweepResult, error) {
	if len(kills) == 0 {
		kills = []int{0, 1, 3, 5}
	}
	const rounds, requests = 6, 120
	out := &CrashSweepResult{Rounds: rounds, Requests: requests}
	baseRow, baseline, err := crashSweepOne(0, rounds, requests, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: crash sweep baseline: %w", err)
	}
	for _, k := range kills {
		row := baseRow // k == 0 is the baseline run itself
		if k != 0 {
			if row, _, err = crashSweepOne(k, rounds, requests, baseline); err != nil {
				return nil, fmt.Errorf("experiments: crash sweep at %d kills: %w", k, err)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// killSchedule spreads k kills evenly across the rounds: the kill fires
// right after round i (1-indexed) has been handed to the shipper, so the
// dying collector usually holds that round's set mid-flight.
func killSchedule(k, rounds int) map[int]bool {
	sched := make(map[int]bool, k)
	for j := 1; j <= k; j++ {
		sched[j*rounds/(k+1)] = true
	}
	return sched
}

// crashSweepOne runs one rung and returns its rendered final report. With a
// nil baseline (the crash-free run) the report is judged exact against
// itself.
func crashSweepOne(kills, rounds, requests int, baseline []byte) (CrashSweepRow, []byte, error) {
	row := CrashSweepRow{Kills: kills, SetsGenerated: rounds}

	dir, err := os.MkdirTemp("", "fluct-crashsweep-*")
	if err != nil {
		return row, nil, err
	}
	defer os.RemoveAll(dir)
	spoolDir := filepath.Join(dir, "spool")
	ckpt := filepath.Join(dir, "checkpoint.json")

	// The collector address changes across incarnations (each listens on a
	// fresh ephemeral port); the shipper's dial chases it through an atomic.
	var currentAddr atomic.Value
	start := func() (*collector.Collector, net.Listener, error) {
		coll, l, err := StartCollector(collector.Config{
			CheckpointPath: ckpt, Registry: obs.NewRegistry(),
		})
		if err != nil {
			return nil, nil, err
		}
		currentAddr.Store(l.Addr().String())
		return coll, l, nil
	}
	coll, l, err := start()
	if err != nil {
		return row, nil, err
	}
	defer func() { l.Close() }()

	s, err := ship.New(ship.Config{
		Addr:   "fleet",
		Source: "crash",
		Dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return net.Dial("tcp", currentAddr.Load().(string))
		},
		SpoolDir:   spoolDir,
		BackoffMin: time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Registry:   obs.NewRegistry(),
	})
	if err != nil {
		return row, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	began := time.Now()
	sched := killSchedule(kills, rounds)
	for r := 1; r <= rounds; r++ {
		if err := s.ShipSet(WorkloadRound(requests)); err != nil {
			return row, nil, err
		}
		if !sched[r] {
			continue
		}
		// Kill the collector with this round typically mid-flight: listener
		// gone, connections severed, in-memory state abandoned. The
		// checkpoint written on Close still ends at the last acked set
		// boundary — mid-set progress is never made durable, so the
		// successor's replay starts clean.
		l.Close()
		coll.CloseConns()
		if err := coll.Close(); err != nil {
			return row, nil, err
		}
		if coll, l, err = start(); err != nil {
			return row, nil, err
		}
	}

	// Everything acked (and therefore checkpointed) before we look.
	if err := s.Drain(ctx); err != nil {
		return row, nil, fmt.Errorf("drain: %w", err)
	}
	var src *collector.Source
	for {
		if src = coll.Source("crash"); src != nil && src.Sets() >= uint64(rounds) {
			break
		}
		if ctx.Err() != nil {
			return row, nil, fmt.Errorf("final collector accounts for %v sets, want %d", src, rounds)
		}
		time.Sleep(time.Millisecond)
	}
	row.Elapsed = time.Since(began)
	cancel()
	<-done

	local, err := core.Integrate(WorkloadRound(requests), core.Options{})
	if err != nil {
		return row, nil, err
	}
	row.SetsDelivered = src.Sets()
	row.ItemsGenerated = len(local.Items)
	row.ItemsDelivered = len(src.Items())
	var got bytes.Buffer
	collector.RenderItems(&got, src.FreqHz(), src.Items())
	if baseline == nil {
		baseline = got.Bytes()
	}
	row.ReportExact = bytes.Equal(got.Bytes(), baseline)
	for _, sum := range coll.Fleet().Sources {
		if sum.ID == "crash" {
			row.LostRecords = sum.LostMarkers + sum.LostSamples
			row.AbortedSets = sum.AbortedSets
		}
	}
	return row, got.Bytes(), nil
}

// Render draws the delivered-vs-generated table.
func (r *CrashSweepResult) Render(w io.Writer) {
	t := report.Table{
		Title: fmt.Sprintf("Crash sweep — %d %d-request rounds shipped while the collector is killed and restarted from its checkpoint",
			r.Rounds, r.Requests),
		Headers: []string{"kills", "sets d/g", "items d/g", "lost recs", "aborted", "verdict"},
	}
	for _, row := range r.Rows {
		verdict := "exact"
		if !row.ReportExact || row.SetsDelivered != uint64(row.SetsGenerated) ||
			row.LostRecords != 0 || row.AbortedSets != 0 {
			verdict = "DIVERGED"
		}
		t.AddRow(
			fmt.Sprintf("%d", row.Kills),
			fmt.Sprintf("%d/%d", row.SetsDelivered, row.SetsGenerated),
			fmt.Sprintf("%d/%d", row.ItemsDelivered, row.ItemsGenerated),
			fmt.Sprintf("%d", row.LostRecords),
			fmt.Sprintf("%d", row.AbortedSets),
			verdict,
		)
	}
	t.Render(w)
	fmt.Fprintf(w, "\n  every rung must read like the crash-free rung: spool + acks + checkpoints make collector crashes invisible in the final accounting\n")
}
