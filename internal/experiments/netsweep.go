package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/collector"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/ship"
)

// NetSweepRow is one rung of the network-degradation ladder: the canonical
// workload round shipped to a loopback collector through a link that cuts
// the connection mid-frame at the given probability per write.
type NetSweepRow struct {
	// CutRate is the injected per-write cut probability (faults net=cutframe).
	CutRate float64
	// Reconnects counts shipper reconnections during the run. Rendered only
	// as zero / non-zero: how much each connection carries before it is cut
	// is a function of the seed, but how far the collector had drained the
	// dead connection when the next one asked where to resume is not.
	Reconnects uint64
	// DroppedFrames counts frames the shipper refused; a set that was let
	// in is delivered whole, so this must stay zero.
	DroppedFrames uint64
	// Items is how many items the collector reconstructed.
	Items int
	// MeanConfidence averages Item.Confidence over the collector's items.
	MeanConfidence float64
	// LostRecords counts markers+samples the SetEnd reconciliation found
	// missing (declared by the shipper but never received).
	LostRecords uint64
	// Degraded reports the collector's per-source health verdict.
	Degraded bool
	// Elapsed is how long the ship took wall-clock. Not rendered: every
	// rendered cell must be deterministic (the experiment suite is
	// byte-diffed across runs), and wall-clock time is not.
	Elapsed time.Duration
}

// NetSweepResult is the shipping resilience experiment: how does the fleet
// pipeline behave as the network gets worse? The claim under test is the
// wire layer's contract — a cut link costs reconnects and telemetry
// freshness, never a crash, a hang, or an item that differs from the clean
// link's.
type NetSweepResult struct {
	Requests int
	Rows     []NetSweepRow
}

// NetSweep ships one workload round per cut rate through a fault-wrapped
// loopback link and reports what survived.
func NetSweep(rates []float64) (*NetSweepResult, error) {
	if len(rates) == 0 {
		rates = []float64{0, 0.05, 0.10, 0.20}
	}
	const requests = 120
	out := &NetSweepResult{Requests: requests}
	for _, rate := range rates {
		row, err := netSweepOne(rate, requests)
		if err != nil {
			return nil, fmt.Errorf("experiments: net sweep at rate %.2f: %w", rate, err)
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func netSweepOne(rate float64, requests int) (NetSweepRow, error) {
	row := NetSweepRow{CutRate: rate}

	coll, l, err := StartCollector(collector.Config{Registry: obs.NewRegistry()})
	if err != nil {
		return row, err
	}
	defer l.Close()

	shipReg := obs.NewRegistry()
	cfg := ship.Config{
		Addr:   l.Addr().String(),
		Source: "sweep",
		// A round this small fits a handful of full frames; a few records
		// to a frame makes it some hundred writes, so a per-write cut rate
		// bites inside the set.
		BatchRecords: 8,
		BackoffMin:   time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		Registry:     shipReg,
	}
	if rate > 0 {
		wrapped := faults.WrapDial(faults.NetPlan{Mode: faults.NetCutFrame, Seed: 1, CutRate: rate},
			func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) })
		cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) { return wrapped(addr) }
	}
	s, err := ship.New(cfg)
	if err != nil {
		return row, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()

	start := time.Now()
	if err := s.ShipSet(WorkloadRound(requests)); err != nil {
		return row, err
	}
	if err := s.Drain(ctx); err != nil {
		return row, err
	}
	var src *collector.Source
	for {
		if src = coll.Source("sweep"); src != nil && src.Sets() >= 1 {
			break
		}
		if ctx.Err() != nil {
			return row, fmt.Errorf("collector never completed the set")
		}
		time.Sleep(time.Millisecond)
	}
	row.Elapsed = time.Since(start)
	cancel()
	<-done

	row.Reconnects = shipReg.Counter("fluct_ship_reconnects_total").Value()
	row.DroppedFrames = shipReg.Counter("fluct_ship_dropped_frames_total").Value()
	items := src.Items()
	row.Items = len(items)
	for i := range items {
		row.MeanConfidence += items[i].Confidence
	}
	if len(items) > 0 {
		row.MeanConfidence /= float64(len(items))
	}
	v := coll.Fleet()
	for _, sum := range v.Sources {
		if sum.ID == "sweep" {
			row.LostRecords = sum.LostMarkers + sum.LostSamples
			row.Degraded = sum.Degraded
		}
	}
	return row, nil
}

// Render draws the resilience-vs-cut-rate table.
func (r *NetSweepResult) Render(w io.Writer) {
	t := report.Table{
		Title:   fmt.Sprintf("Network sweep — one %d-request round shipped over a link cut mid-frame at each rate", r.Requests),
		Headers: []string{"cut rate", "reconnects", "dropped", "items", "mean conf", "lost recs", "verdict"},
	}
	for _, row := range r.Rows {
		verdict := "healthy"
		if row.Degraded {
			verdict = "DEGRADED"
		}
		reconnects := "0"
		if row.Reconnects > 0 {
			reconnects = ">=1"
		}
		t.AddRow(
			report.F(row.CutRate*100, 0)+"%",
			reconnects,
			fmt.Sprintf("%d", row.DroppedFrames),
			fmt.Sprintf("%d", row.Items),
			report.F(row.MeanConfidence, 3),
			fmt.Sprintf("%d", row.LostRecords),
			verdict,
		)
	}
	t.Render(w)
	fmt.Fprintf(w, "\n  every rung must deliver the 0%% row's set exactly: cuts cost reconnects, never a frame, a record or the diagnosis\n")
}
