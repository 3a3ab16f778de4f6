package agg

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/ship"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// workloadSet builds a deterministic two-core request workload trace —
// the same shape the collector's loopback harness ships, rebuilt here
// because the two packages cannot share test code.
func workloadSet(t testing.TB, requests int) *trace.Set {
	t.Helper()
	const cores = 2
	m := sim.MustNew(sim.Config{Cores: cores})
	lookup := m.Syms.MustRegister("table_lookup", 4096)
	render := m.Syms.MustRegister("render_reply", 2048)
	pebs := make([]*pmu.PEBS, cores)
	log := trace.NewMarkerLog(cores, 0)
	perCore := requests / cores
	for ci := 0; ci < cores; ci++ {
		first := uint64(ci*perCore) + 1
		pebs[ci] = pmu.NewPEBS(pmu.PEBSConfig{})
		m.Core(ci).PMU.MustProgram(pmu.UopsRetired, 4000, pebs[ci])
		m.MustSpawn(ci, func(c *sim.Core) {
			for r := 0; r < perCore; r++ {
				id := first + uint64(r)
				log.Mark(c, id, trace.ItemBegin)
				c.Call(lookup, func() {
					for l := 0; l < 150; l++ {
						c.Exec(14)
					}
					if id%37 == 0 {
						c.Exec(25000) // the rare slow item
					}
				})
				c.Call(render, func() { c.Exec(5000) })
				log.Mark(c, id, trace.ItemEnd)
				c.Exec(700)
			}
		})
	}
	m.Wait()
	var samples []pmu.Sample
	for _, p := range pebs {
		samples = append(samples, p.Samples()...)
	}
	return trace.NewSet(m, log, samples)
}

// pipeDial returns a DialFunc that, instead of touching the network,
// creates an in-memory pipe and hands the far end to handle on its own
// goroutine — how the scale harness runs thousands of shippers without
// exhausting file descriptors.
func pipeDial(handle func(net.Conn)) ship.DialFunc {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		client, server := net.Pipe()
		go handle(server)
		return client, nil
	}
}

// shardProc is one in-process shard collector: the collector itself plus
// its uplink to the aggregator and the uplink's Run lifetime.
type shardProc struct {
	id       string
	spoolDir string
	coll     *collector.Collector
	uplink   *Uplink
	cancel   context.CancelFunc
	done     chan error
}

// startShard builds a shard collector whose completed sets flow to the
// aggregator through a spooled uplink dialed with dial.
func startShard(t testing.TB, id, spoolDir string, collCfg collector.Config, dial ship.DialFunc) *shardProc {
	t.Helper()
	if collCfg.Registry == nil {
		collCfg.Registry = obs.NewRegistry()
	}
	u, err := NewUplink(UplinkConfig{
		Addr: "agg", Shard: id, SpoolDir: spoolDir, Dial: dial,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		Registry: collCfg.Registry,
	})
	if err != nil {
		t.Fatal(err)
	}
	collCfg.OnSummary = u.OnSummary
	collCfg.OnVerdicts = u.OnVerdicts
	c, err := collector.New(collCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sp := &shardProc{id: id, spoolDir: spoolDir, coll: c, uplink: u, cancel: cancel, done: make(chan error, 1)}
	go func() { sp.done <- u.Run(ctx) }()
	return sp
}

// stop kills the shard "process": uplink stopped, collector connections
// severed. The uplink spool and collector checkpoint stay on disk for a
// restart.
func (sp *shardProc) stop() {
	sp.cancel()
	<-sp.done
	sp.coll.CloseConns()
}

// shipTo runs one worker shipper end to end: ship the sets over dial,
// wait until the shard collector has completed them all, then shut the
// shipper down.
func shipTo(t testing.TB, source string, dial ship.DialFunc, coll *collector.Collector, sets ...*trace.Set) {
	t.Helper()
	s, err := ship.New(ship.Config{
		Addr: "shard", Source: source, Dial: dial,
		BackoffMin: time.Millisecond, BackoffMax: 10 * time.Millisecond,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	for _, set := range sets {
		if err := s.ShipSet(set); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	waitSets(t, coll, source, uint64(len(sets)), 30*time.Second)
	cancel()
	<-done
}

// waitSets polls until the shard collector has completed n sets from
// source.
func waitSets(t testing.TB, c *collector.Collector, source string, n uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if src := c.Source(source); src != nil && src.Sets() >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard never finished %d set(s) from %q", n, source)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitMerged polls until the aggregator's view holds nSources sources,
// each with at least minSets completed sets.
func waitMerged(t testing.TB, a *Aggregator, nSources int, minSets uint64, timeout time.Duration) collector.FleetView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		v := a.Fleet()
		if len(v.Sources) >= nSources {
			ok := true
			for _, s := range v.Sources {
				if s.Sets < minSets {
					ok = false
					break
				}
			}
			if ok {
				return v
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("aggregator never converged to %d sources × %d sets; view: %+v",
				nSources, minSets, v.Sources)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// renderFleet renders a view to bytes for comparison.
func renderFleet(v collector.FleetView) []byte {
	var buf bytes.Buffer
	v.Render(&buf)
	return buf.Bytes()
}

// firstDiff trims two long reports to the first differing line.
func firstDiff(a, b string) string {
	la, lb := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			start := la
			if lb < start {
				start = lb
			}
			end := i + 120
			if end > len(a) {
				end = len(a)
			}
			return "...first difference near byte " + a[start:end]
		}
		if a[i] == '\n' {
			la = i + 1
		}
		if b[i] == '\n' {
			lb = i + 1
		}
	}
	return "(one report is a prefix of the other)"
}

// TestTwoTierEquivalence is the topology's acceptance bar in miniature:
// sources consistent-hashed across two shard collectors, summaries
// shipped up to the aggregator, and the merged fleet report must be
// byte-identical to a single collector that integrated every source
// directly. (The 4-shard version at scale lives in scale_test.go.)
func TestTwoTierEquivalence(t *testing.T) {
	const topK = 8
	sets := []*trace.Set{workloadSet(t, 40), workloadSet(t, 80), workloadSet(t, 60)}

	// Two-tier side.
	reg := obs.NewRegistry()
	a, err := New(Config{TopK: topK, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	aggDial := pipeDial(a.HandleConn)

	ring := NewRing("shard-a", "shard-b")
	shards := map[string]*shardProc{
		"shard-a": startShard(t, "shard-a", t.TempDir(), collector.Config{TopK: topK}, aggDial),
		"shard-b": startShard(t, "shard-b", t.TempDir(), collector.Config{TopK: topK}, aggDial),
	}
	defer func() {
		for _, sp := range shards {
			sp.stop()
		}
	}()

	// Reference side: one collector owning everything.
	refReg := obs.NewRegistry()
	ref, err := collector.New(collector.Config{TopK: topK, Registry: refReg})
	if err != nil {
		t.Fatal(err)
	}
	refDial := pipeDial(ref.HandleConn)

	sources := []string{"worker-1", "worker-2", "worker-3", "worker-4", "worker-5", "worker-6"}
	owned := map[string]int{}
	for i, src := range sources {
		set := sets[i%len(sets)]
		owner := ring.Owner(src)
		owned[owner]++
		shipTo(t, src, pipeDial(shards[owner].coll.HandleConn), shards[owner].coll, set)
		shipTo(t, src, refDial, ref, set)
	}
	if len(owned) < 2 {
		t.Fatalf("ring put every source on one shard (%v); pick different IDs", owned)
	}
	for id, sp := range shards {
		mustDrain(t, "uplink "+id, sp.uplink, 30*time.Second)
	}
	merged := waitMerged(t, a, len(sources), 1, 30*time.Second)

	got, want := renderFleet(merged), renderFleet(ref.Fleet())
	if !bytes.Equal(got, want) {
		t.Fatalf("merged fleet report differs from single-collector report: %s",
			firstDiff(string(got), string(want)))
	}
	// Ownership is visible: every source's row arrived from its ring owner.
	for _, src := range sources {
		if shard := a.SourceShard(src); shard != ring.Owner(src) {
			t.Errorf("source %s merged from %q, ring owner is %q", src, shard, ring.Owner(src))
		}
	}
}

// TestAggregatorCheckpointRestart: an aggregator bounce must come back
// with /fleet populated and the per-shard ack watermarks intact, and a
// shard replaying its uplink spool afterwards must not double-merge.
func TestAggregatorCheckpointRestart(t *testing.T) {
	const topK = 8
	set := workloadSet(t, 40)
	ckpt := t.TempDir() + "/agg.json"

	a1, err := New(Config{TopK: topK, CheckpointPath: ckpt, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	sp := startShard(t, "shard-a", t.TempDir(), collector.Config{TopK: topK}, pipeDial(a1.HandleConn))
	shipTo(t, "worker-1", pipeDial(sp.coll.HandleConn), sp.coll, set)
	view1 := waitMerged(t, a1, 1, 1, 30*time.Second)
	// The merged row is visible before the aggregator commits its
	// watermark; the uplink's drain (the TAck arriving) is what orders the
	// UpstreamAcked assertion below. It must come after waitMerged: before
	// the summary reaches the uplink spool an empty drain returns at once.
	mustDrain(t, "uplink shard-a", sp.uplink, 30*time.Second)
	sp.stop()
	epoch1, acked1 := a1.UpstreamAcked("shard-a")
	if acked1 == 0 {
		t.Fatal("aggregator acked nothing before the bounce")
	}
	if err := a1.Close(); err != nil {
		t.Fatal(err)
	}

	a2, err := New(Config{TopK: topK, CheckpointPath: ckpt, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderFleet(a2.Fleet()), renderFleet(view1); !bytes.Equal(got, want) {
		t.Fatalf("restarted aggregator lost the merged view: %s", firstDiff(string(got), string(want)))
	}
	epoch2, acked2 := a2.UpstreamAcked("shard-a")
	if epoch2 != epoch1 || acked2 != acked1 {
		t.Fatalf("watermark not restored: (%d,%d) → (%d,%d)", epoch1, acked1, epoch2, acked2)
	}

	// The shard restarts against the bounced aggregator with the same
	// uplink spool: everything it replays is at or below the watermark and
	// must dedup, not double-merge.
	reg2 := obs.NewRegistry()
	u2, err := NewUplink(UplinkConfig{
		Addr: "agg", Shard: "shard-a", SpoolDir: sp.spoolDir,
		Dial: pipeDial(a2.HandleConn), BackoffMin: time.Millisecond, Registry: reg2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- u2.Run(ctx) }()
	u2.Close()
	<-done
	v := a2.Fleet()
	if len(v.Sources) != 1 || v.Sources[0].Sets != 1 {
		t.Fatalf("replay after restart corrupted the view: %+v", v.Sources)
	}
}

// TestRestoreParentCheckpoint: a version-1 aggregator checkpoint (the
// testdata was written by an earlier commit) restores, and the version-2
// checkpoint of the restored state restores to the same state again.
func TestRestoreParentCheckpoint(t *testing.T) {
	a, path, err := restoreFrom(t, readFile(t, "testdata/parent_checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	if epoch, acked := a.UpstreamAcked("shard-a"); epoch != 9 || acked != 11 {
		t.Fatalf("restored watermark (%d,%d), want (9,11)", epoch, acked)
	}
	if v := a.Fleet(); len(v.Sources) != 1 || v.Sources[0].ID != "worker-1" || v.Sources[0].Sets != 3 ||
		a.SourceShard("worker-1") != "shard-a" {
		t.Fatalf("restored view %+v", v.Sources)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{CheckpointPath: path, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if d := stateOf(t, b).diff(stateOf(t, a)); d != "" {
		t.Fatalf("version-1 restore and its re-checkpoint differ: %s", d)
	}
}

// TestAggregatorHTTPAndMetrics: the merge/lag self-telemetry is in the
// scrape output and /fleet serves the merged JSON — the same surface the
// single-tier collector exposes.
func TestAggregatorHTTPAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := New(Config{TopK: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	sp := startShard(t, "shard-a", t.TempDir(), collector.Config{TopK: 4}, pipeDial(a.HandleConn))
	defer sp.stop()
	shipTo(t, "worker-1", pipeDial(sp.coll.HandleConn), sp.coll, workloadSet(t, 40))
	waitMerged(t, a, 1, 1, 30*time.Second)

	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	body := httpGet(t, srv.URL+"/metrics")
	for _, name := range []string{
		"fluct_agg_merges_total", "fluct_agg_frames_total", "fluct_agg_acks_total",
		"fluct_agg_sources", "fluct_agg_shards", "fluct_agg_lag_ms", "fluct_agg_merge_ns",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("scrape output missing %s", name)
		}
	}
	if reg.Counter("fluct_agg_merges_total").Value() == 0 {
		t.Error("no merges counted")
	}
	fleet := httpGet(t, srv.URL+"/fleet")
	if !strings.Contains(fleet, `"worker-1"`) || !strings.Contains(fleet, `"top_slow"`) {
		t.Errorf("/fleet JSON missing merged state: %s", fleet)
	}
	health := httpGet(t, srv.URL+"/healthz")
	if !strings.Contains(health, "healthy") {
		t.Errorf("/healthz verdict: %s", health)
	}
}

func httpGet(t testing.TB, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// TestAggregatorLossCounters drives the aggregator's refusal counters over a
// hand-rolled uplink: a summary older than the merged row is dropped as
// stale (and still acknowledged — it was delivered); a CRC-valid frame that
// does not decode consumes its sequence number, is counted, and gets no ack
// of its own — the next good frame's cumulative ack covers it; and a peer
// that sends data before any SeqStart is hung up on.
func TestAggregatorLossCounters(t *testing.T) {
	reg := obs.NewRegistry()
	a, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	connect := func() net.Conn {
		client, server := net.Pipe()
		go a.HandleConn(server)
		t.Cleanup(func() { client.Close() })
		if _, err := wire.ClientHandshake(client, "shard-a"); err != nil {
			t.Fatal(err)
		}
		return client
	}
	send := func(conn net.Conn, typ wire.Type, payload []byte) {
		t.Helper()
		if err := wire.WriteFrame(conn, wire.Frame{Type: typ, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	readAck := func(conn net.Conn) wire.Ack {
		t.Helper()
		f, err := (*wire.FramePool)(nil).NewReader(conn).Next()
		if err != nil || f.Type != wire.TAck {
			t.Fatalf("read %s frame, err %v, want an ack", f.Type, err)
		}
		ack, err := wire.DecodeAck(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return ack
	}
	summary := func(sets uint64) []byte {
		p, err := wire.AppendFleetSummary(nil, wire.FleetSummary{Source: "w", FreqHz: 1_000_000, Sets: sets})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	count := func(name string) uint64 { return reg.Counter(name).Value() }

	conn := connect()
	send(conn, wire.TSeqStart, wire.AppendSeqStart(nil, wire.SeqStart{Epoch: 5, FirstSeq: 1}))
	if got := readAck(conn); got != (wire.Ack{Epoch: 5}) {
		t.Fatalf("SeqStart reply %+v", got)
	}
	send(conn, wire.TFleetSummary, summary(2))
	if got := readAck(conn); got.Seq != 1 {
		t.Fatalf("first summary acked at %d, want 1", got.Seq)
	}

	send(conn, wire.TFleetSummary, summary(1)) // older than what is merged
	if got := readAck(conn); got.Seq != 2 {
		t.Fatalf("stale summary acked at %d, want 2", got.Seq)
	}
	if got := count("fluct_agg_stale_rows_total"); got != 1 {
		t.Fatalf("stale rows %d, want 1", got)
	}
	if v := a.Fleet(); len(v.Sources) != 1 || v.Sources[0].Sets != 2 {
		t.Fatalf("stale row moved the merged view: %+v", v.Sources)
	}

	send(conn, wire.TFleetSummary, []byte{0xff}) // intact frame, unusable payload: seq 3
	send(conn, wire.TFleetSummary, summary(3))
	if got := readAck(conn); got.Seq != 4 {
		t.Fatalf("ack after the undecodable frame is for %d, want 4 (none for 3, and 4 covers it)", got.Seq)
	}
	if got := count("fluct_agg_decode_errors_total"); got != 1 {
		t.Fatalf("decode errors %d, want 1", got)
	}
	if _, seq := a.UpstreamAcked("shard-a"); seq != 4 {
		t.Fatalf("watermark %d, want 4", seq)
	}

	rogue := connect()
	send(rogue, wire.TFleetSummary, summary(9))
	if _, err := (*wire.FramePool)(nil).NewReader(rogue).Next(); err == nil {
		t.Fatal("a summary sent before any SeqStart was answered, want a hang-up")
	}
	if got := count("fluct_agg_decode_errors_total"); got != 2 {
		t.Fatalf("decode errors %d after the unnumbered frame, want 2", got)
	}
	if v := a.Fleet(); v.Sources[0].Sets != 3 {
		t.Fatalf("the unnumbered summary was merged: %+v", v.Sources)
	}
}

// TestAggregatorHandAllocs: a summary frame is checked, not decoded, on its
// way in, so Hand makes at most two allocations for a 2,000-item frame —
// the source ID and the payload's copy — however many items and spans it
// carries.
func TestAggregatorHandAllocs(t *testing.T) {
	s := handStream(t)
	_, payload := syntheticSummary(t, 0, 2000)
	seq := uint64(1)
	hand(t, s, payload, seq) // the source's row exists from here on
	if n := testing.AllocsPerRun(20, func() { seq++; hand(t, s, payload, seq) }); n > 2 {
		t.Fatalf("Hand of a 2,000-item summary made %v allocations, want ≤ 2", n)
	}
}

// TestAggregatorFleetDuringMerges: Fleet decodes, outside a.mu, payloads
// that two shard connections keep replacing as they merge and checkpoint.
// Every view decodes, and since each resent row carries the same items at
// a higher set count, every view's top-K equals a final quiescent read.
func TestAggregatorFleetDuringMerges(t *testing.T) {
	a, err := New(Config{CheckpointPath: t.TempDir() + "/agg.json", Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	const perShard, rounds, items = 3, 30, 50
	shards := []string{"shard-a", "shard-b"}
	frames := func(shard int, round uint64) []wire.Frame {
		var fr []wire.Frame
		for j := 0; j < perShard; j++ {
			fs, _ := syntheticSummary(t, shard*perShard+j, items)
			fs.Sets = round
			fr = append(fr, summaryFrame(t, fs))
		}
		return fr
	}
	conns := make([]net.Conn, len(shards))
	for i, id := range shards {
		conns[i] = uplinkClient(t, a, id)
		sendSeqStart(t, conns[i], 1, 1)
		sendAcked(t, conns[i], frames(i, 1)...)
	}
	// Built up front: summaryFrame may fail the test, which only the test
	// goroutine may do.
	resend := make([][]wire.Frame, len(shards))
	for i := range shards {
		for round := uint64(2); round <= rounds; round++ {
			resend[i] = append(resend[i], frames(i, round)...)
		}
	}
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(conn net.Conn, frames []wire.Frame) {
			defer wg.Done()
			r := (*wire.FramePool)(nil).NewReader(conn)
			for _, f := range frames {
				if err := wire.WriteFrame(conn, f); err != nil {
					t.Error(err)
					return
				}
				if ack, err := r.Next(); err != nil || ack.Type != wire.TAck {
					t.Errorf("read %s frame (err %v), want an ack", ack.Type, err)
					return
				}
			}
		}(conns[i], resend[i])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	topK := func(v collector.FleetView) string {
		var buf bytes.Buffer
		v.RenderTopK(&buf)
		return buf.String()
	}
	views := map[string]int{}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		v := a.Fleet()
		total := 0
		for _, s := range v.Sources {
			total += s.Items
		}
		if len(v.Sources) != len(shards)*perShard || total != len(shards)*perShard*items {
			t.Fatalf("view of %d sources and %d items, want %d and %d", len(v.Sources), total, len(shards)*perShard, len(shards)*perShard*items)
		}
		views[topK(v)]++
	}
	final := a.Fleet()
	for _, s := range final.Sources {
		if s.Sets != rounds {
			t.Fatalf("source %s at %d sets after the merges, want %d", s.ID, s.Sets, rounds)
		}
	}
	want := topK(final)
	for got, n := range views {
		if got != want {
			t.Fatalf("%d views read a top-K other than the quiescent one: %s", n, firstDiff(got, want))
		}
	}
}
