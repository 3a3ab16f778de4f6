package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/pmu"
	"repro/internal/spool"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Probes time one layer's public functions standalone, single-threaded,
// on inputs the run retained. With nothing else contending they give each
// layer's own CPU cost per unit of work — an upper bound on what speeding
// that layer up can save per set on the closed loops, and the rows of the
// per-set budget.
//
// One pass over all the probes is one round. A traced fleet run makes a
// round after each of its pairs of stretches, while both topologies are
// idle, and reports each row's median across the rounds: the rounds are
// then spread over the same seconds, and the same weather, as the window
// whose CPU per set they are compared with, and a collection cycle or a
// neighbour's burst lands in one round, not in the result.

// probeBudget is how long a probe repeats its call within one round; the
// tests shorten it.
var probeBudget = 30 * time.Millisecond

// timeIt returns the process CPU time of one call of fn: the mean over as
// many calls as fit probeBudget (at least three), after one call to warm
// up. CPU rather than wall time: it is what the budget adds up, it counts
// the garbage collection a layer's allocations cause on the other core,
// and it does not count the time a noisy neighbour kept the probe off the
// CPU.
func timeIt(fn func()) time.Duration {
	fn()
	start, cpu0 := time.Now(), cpuTime()
	n := 0
	for n < 3 || time.Since(start) < probeBudget {
		fn()
		n++
	}
	return (cpuTime() - cpu0) / time.Duration(n)
}

// cpuOf returns the process CPU time one call of fn took.
func cpuOf(fn func()) time.Duration {
	cpu0 := cpuTime()
	fn()
	return cpuTime() - cpu0
}

// medianRounds reduces the rounds' tables to one: each row's median.
func medianRounds(rounds []map[string]float64) map[string]float64 {
	byRow := map[string][]float64{}
	for _, round := range rounds {
		for row, v := range round {
			byRow[row] = append(byRow[row], v)
		}
	}
	out := map[string]float64{}
	for row, vs := range byRow {
		out[row] = stats.Median(vs)
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setProbes is one round of the per-record and per-set layers' probes on
// one trace set. It fills the per-layer rows into m and returns the CPU
// milliseconds each layer spends on one such set, keyed by budget row.
func setProbes(set *trace.Set, dir string, m map[string]float64) (budget map[string]float64, err error) {
	budget = map[string]float64{}
	records := len(set.Markers) + len(set.Samples)
	items := len(set.Markers) / 2

	// The set's records in shipping order, cut into frames as ShipSet cuts
	// them: the inputs of the wire, spool, socket and core probes.
	feed := feedOrder(set)
	runs := frameRuns(set, feed, defaultBatchRecords)

	// wire: encode the set's data frames in place, then walk them back.
	var enc []byte
	encode := timeIt(func() {
		enc = enc[:0]
		for _, r := range runs {
			var start int
			if len(r.markers) > 0 {
				enc, start = wire.BeginFrame(enc, wire.TMarkers)
				enc = wire.AppendMarkers(enc, r.markers)
			} else {
				enc, start = wire.BeginFrame(enc, wire.TSamples)
				enc = wire.AppendSamples(enc, r.samples)
			}
			enc, _ = wire.EndFrame(enc, start) // only an over-16-MiB payload can fail
		}
	})
	var frames [][]byte
	var decodeErr error
	markers := make([]trace.Marker, defaultBatchRecords)
	samples := make([]pmu.Sample, defaultBatchRecords)
	decode := timeIt(func() {
		frames = frames[:0]
		rest := enc
		for len(rest) > 0 {
			var v wire.FrameView
			v, rest, decodeErr = wire.ParseFrameView(rest)
			if decodeErr != nil {
				return
			}
			frames = append(frames, v.Raw())
			if v.Type == wire.TMarkers {
				it := wire.IterMarkers(v.Payload)
				for it.NextBatch(markers) > 0 {
				}
			} else {
				it := wire.IterSamples(v.Payload)
				for it.NextBatch(samples) > 0 {
				}
			}
		}
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	m["wire.encode_ns_per_record"] = float64(encode) / float64(records)
	m["wire.decode_ns_per_record"] = float64(decode) / float64(records)
	m["wire.bytes_per_record"] = float64(len(enc)) / float64(records)
	budget["wire_decode"] = ms(decode) // encoding is inside ShipSet, the shipset row

	// spool: append, recover, replay and acknowledge the set's frames.
	// Enough sets that the spool rotates segments and each timed phase runs
	// for milliseconds even when a set is a few dozen frames.
	probeSets := max(8, 4000/max(len(frames), 1))
	nFrames := probeSets * len(frames)
	spoolDir := filepath.Join(dir, "probe-spool")
	ph, err := spoolProbe(spoolDir, frames, probeSets)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(spoolDir); err != nil {
		return nil, err
	}
	m["spool.append_ns_per_frame"] = float64(ph.appendAll) / float64(nFrames)
	m["spool.append_mb_per_s"] = float64(probeSets*len(enc)) / 1e6 / ph.appendAll.Seconds()
	m["spool.open_recover_ms"] = ms(ph.recover)
	m["spool.replay_ns_per_frame"] = float64(ph.replay) / float64(nFrames)
	m["spool.ack_us"] = us(ph.ack) / float64(probeSets)

	// socket: the set's frames across the shard hop's transport.
	if err := socketProbe(frames, m, budget); err != nil {
		return nil, err
	}

	// core: the collector's stream integration of the set's records.
	var integErr error
	pass := func() {
		integ, err := core.NewStreamIntegrator(set.Syms, core.Options{}, func(*core.Item) {})
		if err != nil {
			integErr = err
			return
		}
		integ.OnItem = integ.Recycle
		for _, e := range feed {
			if e.marker >= 0 {
				integ.Marker(set.Markers[e.marker])
			} else {
				integ.Sample(set.Samples[e.sample])
			}
		}
		integ.Close()
	}
	stream := timeIt(pass)
	if integErr != nil {
		return nil, integErr
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	m["core.stream_ns_per_record"] = float64(stream) / float64(records)
	m["core.stream_allocs_per_item"] = float64(mallocs) / float64(items)
	budget["core"] = ms(stream)

	symtabProbe(set, m)

	// detect: the online detector over the set's integrated items.
	ref, err := streamItems(set)
	if err != nil {
		return nil, err
	}
	det, err := detect.New(detect.Config{Registry: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	update := timeIt(func() {
		for i := range ref {
			det.Update(&ref[i])
		}
	})
	m["detect.update_ns_per_item"] = float64(update) / float64(max(len(ref), 1))
	budget["detect"] = ms(update)

	// trace: the per-set health scan the collector runs at SetEnd.
	gaps := timeIt(func() { set.GapSummary(pmu.UopsRetired) })
	m["trace.gapsummary_us_per_set"] = us(gaps)
	budget["trace"] = ms(gaps)
	return budget, nil
}

// spoolPhases is the process CPU time of each phase of one spoolProbe.
type spoolPhases struct{ appendAll, recover, replay, ack time.Duration }

// spoolProbe appends sets copies of the frames to a fresh spool in dir,
// closes and re-opens it (recovery), reads everything back and acks set by
// set.
func spoolProbe(dir string, frames [][]byte, sets int) (ph spoolPhases, err error) {
	sp, _, err := spool.Open(spool.Config{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		return ph, err
	}
	var ends []uint64 // sequence number closing each appended set
	ph.appendAll = cpuOf(func() {
		for s := 0; s < sets && err == nil; s++ {
			var seq uint64
			for _, fr := range frames {
				if seq, err = sp.Append(fr); err != nil {
					return
				}
			}
			ends = append(ends, seq)
		}
	})
	if err == nil {
		err = sp.Close()
	}
	if err != nil {
		return ph, err
	}
	ph.recover = cpuOf(func() {
		sp, _, err = spool.Open(spool.Config{Dir: dir, Registry: obs.NewRegistry()})
	})
	if err != nil {
		return ph, err
	}
	ph.replay = cpuOf(func() { err = sp.Frames(1, func(uint64, []byte) error { return nil }) })
	if err != nil {
		return ph, err
	}
	ph.ack = cpuOf(func() {
		for _, seq := range ends {
			if err = sp.Ack(seq); err != nil {
				return
			}
		}
	})
	if err == nil {
		err = sp.Close()
	}
	return ph, err
}

// socketProbe carries the set's frames over a loopback TCP connection the
// way the shard hop does: the sender issues one vectored write per set
// (the shipper's net.Buffers path), the receiver is the collector's
// reader — a pooled FrameReader, two reads per frame, CRC verified. Both
// ends' CPU counts; neither decodes a record.
func socketProbe(frames [][]byte, m, budget map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	done := make(chan error, 1)
	var received atomic.Int64 // frames the reader has taken off the socket
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		rd := wire.NewFramePool(obs.NewRegistry()).NewReader(c)
		for {
			v, err := rd.Next()
			if err != nil {
				if err == io.EOF {
					err = nil
				}
				done <- err
				return
			}
			v.Release()
			received.Add(1)
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	var werr error
	sets, sent := 0, int64(0)
	start, cpu0 := time.Now(), cpuTime()
	for werr == nil && (sets < 3 || time.Since(start) < probeBudget) {
		bufs := net.Buffers(slices.Clone(frames))
		_, werr = bufs.WriteTo(conn)
		sets++
		sent += int64(len(frames))
	}
	// The round ends when the reader has caught up, so that its CPU is
	// counted.
	for werr == nil && received.Load() < sent {
		select {
		case err := <-done:
			werr = fmt.Errorf("socket probe reader stopped: %v", err)
		default:
			runtime.Gosched()
		}
	}
	perSet := (cpuTime() - cpu0) / time.Duration(sets)
	conn.Close()
	if werr != nil {
		return werr
	}
	if err := <-done; err != nil {
		return err
	}
	m["wire.socket_ns_per_frame"] = float64(perSet) / float64(max(len(frames), 1))
	budget["socket"] = ms(perSet)
	return nil
}

// symtabProbe times IP resolution over the set's samples.
func symtabProbe(set *trace.Set, m map[string]float64) {
	h0, m0 := set.Syms.CacheStats()
	resolve := timeIt(func() {
		for i := range set.Samples {
			set.Syms.Resolve(set.Samples[i].IP)
		}
	})
	h1, m1 := set.Syms.CacheStats()
	m["symtab.resolve_ns"] = float64(resolve) / float64(max(len(set.Samples), 1))
	if lookups := (h1 - h0) + (m1 - m0); lookups > 0 {
		m["symtab.cache_hit_share"] = float64(h1-h0) / float64(lookups)
	}
}

// fileSize returns path's size in bytes, 0 if it cannot be read.
func fileSize(path string) float64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(st.Size())
}

// fleetProbes is one round of the per-set layers' probes on the live state
// of both tiers, idle at the moment: checkpoints, fleet views, the summary
// codec, the ring.
func (e *fleetEnv) fleetProbes(m, budget map[string]float64) error {
	f := e.f
	sp := f.shards[shardA]
	coll := sp.collector()

	var err error
	ckpt := timeIt(func() {
		if cerr := coll.Checkpoint(); cerr != nil {
			err = cerr
		}
	})
	if err != nil {
		return err
	}
	m["collector.checkpoint_ms"] = ms(ckpt)
	m["collector.checkpoint_bytes"] = fileSize(sp.cfg.CheckpointPath)
	budget["checkpoint"] = ms(ckpt)
	m["collector.fleet_ms"] = ms(timeIt(func() { coll.Fleet() }))

	restorePath := filepath.Join(f.dir, "probe-restore.ckpt")
	ckptBytes, err := os.ReadFile(sp.cfg.CheckpointPath)
	if err != nil {
		return err
	}
	if err := os.WriteFile(restorePath, ckptBytes, 0o644); err != nil {
		return err
	}
	var restored *collector.Collector
	restore := cpuOf(func() {
		restored, err = collector.New(collector.Config{CheckpointPath: restorePath, Registry: obs.NewRegistry()})
	})
	if err != nil {
		return err
	}
	if err := restored.Close(); err != nil {
		return err
	}
	m["collector.restore_ms"] = ms(restore)

	sp.upMu.Lock()
	fs := sp.lastSum
	sp.upMu.Unlock()
	var payload []byte
	encode := timeIt(func() {
		if payload, err = wire.AppendFleetSummary(payload[:0], fs); err != nil {
			return
		}
	})
	if err != nil {
		return err
	}
	decode := timeIt(func() {
		if _, derr := wire.DecodeFleetSummary(payload); derr != nil {
			err = derr
		}
	})
	if err != nil {
		return err
	}
	m["wire.summary_codec_us"] = us(encode + decode)
	m["wire.summary_bytes_per_set"] = float64(len(payload))
	budget["summary"] = ms(encode + decode)

	aggCkpt := timeIt(func() {
		if cerr := f.agg.Checkpoint(); cerr != nil {
			err = cerr
		}
	})
	if err != nil {
		return err
	}
	m["agg.checkpoint_ms"] = ms(aggCkpt)
	m["agg.checkpoint_bytes"] = fileSize(filepath.Join(f.dir, "agg.ckpt"))
	budget["agg_checkpoint"] = ms(aggCkpt)
	m["agg.fleet_ms"] = ms(timeIt(func() { f.agg.Fleet() }))

	// The ring over plain numbered IDs: the fleet's own sources were picked
	// to alternate between the shards, so their split says nothing.
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = fmt.Sprintf("source-%d", i)
	}
	owned := map[string]int{}
	owner := timeIt(func() {
		clear(owned)
		for _, id := range ids {
			owned[f.ring.Owner(id)]++
		}
	})
	m["agg.ring_owner_ns"] = float64(owner) / float64(len(ids))
	most := 0
	for _, n := range owned {
		most = max(most, n)
	}
	m["agg.ring_imbalance"] = float64(most) / (float64(len(ids)) / float64(len(f.shards)))
	return nil
}

// classifyProbe times the compiled matcher alone over generated packets.
func classifyProbe(cfg dataplane.PipelineConfig, m map[string]float64) error {
	matcher, err := dataplane.Compile(cfg.Rules, cfg.Build)
	if err != nil {
		return err
	}
	gcfg := cfg.Gen
	gcfg.Rules, gcfg.Routes = cfg.Rules, cfg.Routes
	gen := dataplane.NewGenerator(gcfg)
	pkts := make([]dataplane.Packet, 4096)
	for i := range pkts {
		pkts[i] = gen.Next()
	}
	scratch := matcher.Scratch()
	d := timeIt(func() {
		for i := range pkts {
			matcher.Classify(&pkts[i], scratch)
		}
	})
	m["dataplane.classify_ns_per_pkt"] = float64(d) / float64(len(pkts))
	return nil
}
