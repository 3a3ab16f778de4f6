package agg

import (
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/symtab"
	"repro/internal/trace"
	"repro/internal/wire"
)

// uplinkClient opens an in-memory uplink connection for shard to a and
// completes the handshake.
func uplinkClient(t *testing.T, a *Aggregator, shard string) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	go a.HandleConn(server)
	t.Cleanup(func() { client.Close() })
	if _, err := wire.ClientHandshake(client, shard); err != nil {
		t.Fatal(err)
	}
	return client
}

// sendSeqStart opens conn's numbering at (epoch, first) and returns the
// reply.
func sendSeqStart(t *testing.T, conn net.Conn, epoch, first uint64) wire.Ack {
	t.Helper()
	if err := wire.WriteFrame(conn, wire.Frame{Type: wire.TSeqStart,
		Payload: wire.AppendSeqStart(nil, wire.SeqStart{Epoch: epoch, FirstSeq: first})}); err != nil {
		t.Fatal(err)
	}
	return readAckFrame(t, conn)
}

func readAckFrame(t *testing.T, conn net.Conn) wire.Ack {
	t.Helper()
	f, err := (*wire.FramePool)(nil).NewReader(conn).Next()
	if err != nil || f.Type != wire.TAck {
		t.Fatalf("read %s frame (err %v), want an ack", f.Type, err)
	}
	ack, err := wire.DecodeAck(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

func summaryFrame(t *testing.T, fs wire.FleetSummary) wire.Frame {
	t.Helper()
	p, err := wire.AppendFleetSummary(nil, fs)
	if err != nil {
		t.Fatal(err)
	}
	return wire.Frame{Type: wire.TFleetSummary, Payload: p}
}

// TestAggregatorAppliesInNumberOrder: an uplink connection A sends summary
// N, large enough to take a while to decode. A reconnected connection B for
// the same shard is told, by its SeqStart reply, to resume past N — so N is
// admitted — and sends N+1. When B's ack for N+1 arrives, N must be in the
// merged view: an ack covers every number at or below it.
func TestAggregatorAppliesInNumberOrder(t *testing.T) {
	a, err := New(Config{Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	const epoch = 5
	big := wire.FleetSummary{Source: "w1", FreqHz: 1_000_000_000, Sets: 1, Items: make([]core.Item, 200_000)}
	for i := range big.Items {
		big.Items[i] = core.Item{ID: uint64(i + 1), BeginTSC: uint64(i) * 1000, EndTSC: uint64(i)*1000 + 500, Confidence: 1}
	}
	nFrame := summaryFrame(t, big)

	conn := uplinkClient(t, a, "shard-a")
	sendSeqStart(t, conn, epoch, 1)
	go wire.WriteFrame(conn, nFrame)

	var b net.Conn
	deadline := time.Now().Add(30 * time.Second)
	for {
		b = uplinkClient(t, a, "shard-a")
		if reply := sendSeqStart(t, b, epoch, 1); reply.Applied >= 1 {
			break
		}
		b.Close()
		if time.Now().After(deadline) {
			t.Fatal("summary N was never admitted")
		}
	}
	sendSeqStart(t, b, epoch, 2)
	if err := wire.WriteFrame(b, summaryFrame(t, wire.FleetSummary{Source: "w2", FreqHz: 1_000_000_000, Sets: 1})); err != nil {
		t.Fatal(err)
	}
	if ack := readAckFrame(t, b); ack.Seq != 2 {
		t.Fatalf("ack %+v, want 2", ack)
	}
	if a.SourceShard("w1") == "" {
		t.Fatal("summary N+1 was acknowledged while summary N, admitted before it, was not merged")
	}
}

// receiverTier is one tier under the receiver conformance table: how to
// build it, one unit of data it acknowledges (the frames up to and
// including an ack-worthy one), how many units it has applied, and the
// names its counters go by.
type receiverTier struct {
	name  string
	start func(t *testing.T, reg *obs.Registry, ckpt string, idle time.Duration) (handle func(net.Conn), applied func() uint64)
	unit  []wire.Frame
	// counter maps a loop counter role to the tier's metric name.
	counter map[string]string
}

func receiverTiers(t *testing.T) []receiverTier {
	tab := symtab.NewTable()
	tab.MustRegister("f", 256)
	sym, err := wire.AppendSymtab(nil, 1_000_000_000, tab)
	if err != nil {
		t.Fatal(err)
	}
	markers := []trace.Marker{
		{Item: 1, TSC: 1000, Core: 0, Kind: trace.ItemBegin},
		{Item: 1, TSC: 5000, Core: 0, Kind: trace.ItemEnd},
	}
	const src = "w1"
	return []receiverTier{{
		name: "collector",
		start: func(t *testing.T, reg *obs.Registry, ckpt string, idle time.Duration) (func(net.Conn), func() uint64) {
			c, err := collector.New(collector.Config{Registry: reg, CheckpointPath: ckpt, IdleTimeout: idle})
			if err != nil {
				t.Fatal(err)
			}
			return c.HandleConn, func() uint64 {
				if s := c.Source(src); s != nil {
					return s.Sets()
				}
				return 0
			}
		},
		unit: []wire.Frame{
			{Type: wire.TSymtab, Payload: sym},
			{Type: wire.TRecords, Payload: wire.AppendMarkerRun(nil, 0, markers)},
			{Type: wire.TSetEnd, Payload: wire.AppendSetEnd(nil, wire.SetEnd{Markers: 2})},
		},
		counter: map[string]string{
			"grammar": "fluct_collector_grammar_errors_total", "corrupt": "fluct_collector_crc_errors_total",
			"disconnects": "fluct_collector_disconnects_total", "idle": "fluct_collector_idle_disconnects_total",
			"duplicates": "fluct_collector_duplicate_frames_total", "ckpt": "fluct_collector_checkpoint_errors_total",
		},
	}, {
		name: "agg",
		start: func(t *testing.T, reg *obs.Registry, ckpt string, idle time.Duration) (func(net.Conn), func() uint64) {
			a, err := New(Config{Registry: reg, CheckpointPath: ckpt, IdleTimeout: idle})
			if err != nil {
				t.Fatal(err)
			}
			return a.HandleConn, reg.Counter("fluct_agg_merges_total").Value
		},
		unit: []wire.Frame{summaryFrame(t, wire.FleetSummary{Source: src, FreqHz: 1_000_000_000, Sets: 1})},
		counter: map[string]string{
			"grammar": "fluct_agg_decode_errors_total", "corrupt": "fluct_agg_decode_errors_total",
			"disconnects": "fluct_agg_disconnects_total", "idle": "fluct_agg_idle_disconnects_total",
			"duplicates": "fluct_agg_duplicate_frames_total", "ckpt": "fluct_agg_checkpoint_errors_total",
		},
	}}
}

// receiverRig is one tier instance under one conformance row.
type receiverRig struct {
	t       *testing.T
	tier    receiverTier
	reg     *obs.Registry
	handle  func(net.Conn)
	applied func() uint64
}

func (r *receiverRig) count(role string) uint64 { return r.reg.Counter(r.tier.counter[role]).Value() }

// dial opens a handshaken connection with its reads bounded, so a receiver
// that fails to hang up fails the row instead of stalling it.
func (r *receiverRig) dial() net.Conn {
	client, server := net.Pipe()
	go r.handle(server)
	r.t.Cleanup(func() { client.Close() })
	if _, err := wire.ClientHandshake(client, "w1"); err != nil {
		r.t.Fatal(err)
	}
	_ = client.SetReadDeadline(time.Now().Add(10 * time.Second))
	return client
}

// send writes frames until the receiver stops reading.
func (r *receiverRig) send(conn net.Conn, frames ...wire.Frame) {
	for _, f := range frames {
		if wire.WriteFrame(conn, f) != nil {
			return
		}
	}
}

// hungUp asserts the receiver closed conn without sending anything more.
func (r *receiverRig) hungUp(conn net.Conn, why string) {
	r.t.Helper()
	f, err := (*wire.FramePool)(nil).NewReader(conn).Next()
	if err == nil {
		r.t.Fatalf("%s: receiver answered with a %s frame, want a hang-up", why, f.Type)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		r.t.Fatalf("%s: receiver kept the connection", why)
	}
}

// waitCount polls until the role's counter reaches want.
func (r *receiverRig) waitCount(role string, want uint64) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.count(role) != want {
		if time.Now().After(deadline) {
			r.t.Fatalf("%s counter at %d, want %d", role, r.count(role), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// shipUnit sends the unit after a SeqStart at (epoch, 1), skipping what the
// reply says the receiver already has, as the shipper does, and returns the
// ack of the unit's last frame.
func (r *receiverRig) shipUnit(conn net.Conn, epoch uint64) wire.Ack {
	r.t.Helper()
	resume := sendSeqStart(r.t, conn, epoch, 1).Applied
	if resume > 0 {
		sendSeqStart(r.t, conn, epoch, resume+1)
	}
	r.send(conn, r.tier.unit[resume:]...)
	return readAckFrame(r.t, conn)
}

// TestReceiverConformance runs one table of receive-loop behaviour against
// both tiers: the collector's per-source streams and the aggregator's
// per-shard ones must answer every case the same way, each on its own
// counters.
func TestReceiverConformance(t *testing.T) {
	rows := []struct {
		name string
		idle time.Duration
		ckpt bool // a checkpoint path in a directory that does not exist yet
		run  func(t *testing.T, r *receiverRig, ckptDir string)
	}{{
		name: "data before SeqStart",
		run: func(t *testing.T, r *receiverRig, _ string) {
			conn := r.dial()
			r.send(conn, r.tier.unit...)
			r.hungUp(conn, "unnumbered data frame")
			r.waitCount("grammar", 1)
			if got := r.applied(); got != 0 {
				t.Fatalf("unnumbered frames applied %d units", got)
			}
		},
	}, {
		name: "malformed SeqStart",
		run: func(t *testing.T, r *receiverRig, _ string) {
			conn := r.dial()
			r.send(conn, wire.Frame{Type: wire.TSeqStart})
			r.hungUp(conn, "malformed SeqStart")
			r.waitCount("corrupt", 1)
		},
	}, {
		name: "CRC damage drops the link, an exact retransmit lands",
		run: func(t *testing.T, r *receiverRig, _ string) {
			unit := r.tier.unit
			conn := r.dial()
			sendSeqStart(t, conn, 5, 1)
			r.send(conn, unit[:len(unit)-1]...)
			damaged := wire.AppendFrame(nil, unit[len(unit)-1])
			damaged[len(damaged)-1] ^= 0xff
			_, _ = conn.Write(damaged)
			r.hungUp(conn, "CRC-damaged frame")
			r.waitCount("corrupt", 1)
			r.waitCount("disconnects", 1)
			if ack := r.shipUnit(r.dial(), 5); ack.Seq != uint64(len(unit)) {
				t.Fatalf("retransmit acked at %d, want %d", ack.Seq, len(unit))
			}
			if got := r.applied(); got != 1 {
				t.Fatalf("applied %d units, want 1", got)
			}
		},
	}, {
		name: "stale epoch dropped",
		run: func(t *testing.T, r *receiverRig, _ string) {
			unit := r.tier.unit
			old := r.dial()
			sendSeqStart(t, old, 1, 1)
			if ack := r.shipUnit(r.dial(), 2); ack != (wire.Ack{Epoch: 2, Seq: uint64(len(unit)), Applied: uint64(len(unit))}) {
				t.Fatalf("new generation acked %+v", ack)
			}
			r.send(old, unit...)
			r.hungUp(old, "stale-epoch frame")
			r.waitCount("disconnects", 1)
			if got := r.applied(); got != 1 {
				t.Fatalf("applied %d units, want 1", got)
			}
		},
	}, {
		name: "duplicate re-acked, not re-applied",
		run: func(t *testing.T, r *receiverRig, _ string) {
			unit := r.tier.unit
			r.shipUnit(r.dial(), 5)
			conn := r.dial()
			sendSeqStart(t, conn, 5, 1)
			r.send(conn, unit...)
			if ack := readAckFrame(t, conn); ack.Seq != uint64(len(unit)) {
				t.Fatalf("duplicate acked at %d, want %d", ack.Seq, len(unit))
			}
			r.waitCount("duplicates", uint64(len(unit)))
			if got := r.applied(); got != 1 {
				t.Fatalf("duplicate re-applied: %d units", got)
			}
		},
	}, {
		name: "checkpoint failure withholds the ack",
		ckpt: true,
		run: func(t *testing.T, r *receiverRig, ckptDir string) {
			unit := r.tier.unit
			conn := r.dial()
			sendSeqStart(t, conn, 5, 1)
			r.send(conn, unit...)
			r.waitCount("ckpt", 1)
			// Acks are written in order, so the next frame on the link is
			// the reply to this SeqStart only if the unit's ack was withheld.
			// The reply sends the sender back to the durable line.
			if got := sendSeqStart(t, conn, 5, 1); got != (wire.Ack{Epoch: 5}) {
				t.Fatalf("after a failed checkpoint the link carried %+v, want the SeqStart reply at 0/0", got)
			}
			if err := os.MkdirAll(ckptDir, 0o755); err != nil {
				t.Fatal(err)
			}
			r.send(conn, unit...)
			if ack := readAckFrame(t, conn); ack.Seq != uint64(len(unit)) {
				t.Fatalf("post-heal ack %+v, want %d", ack, len(unit))
			}
			r.waitCount("duplicates", uint64(len(unit)))
			if got := r.applied(); got != 1 {
				t.Fatalf("retransmit after the heal re-applied: %d units", got)
			}
		},
	}, {
		// Folds in the collector's former TestIdleTimeout.
		name: "idle timeout",
		idle: 50 * time.Millisecond,
		run: func(t *testing.T, r *receiverRig, _ string) {
			r.hungUp(r.dial(), "idle connection")
			r.waitCount("idle", 1)
		},
	}}
	for _, tier := range receiverTiers(t) {
		for _, row := range rows {
			t.Run(tier.name+"/"+row.name, func(t *testing.T) {
				r := &receiverRig{t: t, tier: tier, reg: obs.NewRegistry()}
				ckptDir, ckpt := t.TempDir()+"/sub", ""
				if row.ckpt {
					ckpt = ckptDir + "/checkpoint.json"
				}
				r.handle, r.applied = tier.start(t, r.reg, ckpt, row.idle)
				row.run(t, r, ckptDir)
			})
		}
	}
}
