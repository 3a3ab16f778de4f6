package main

import (
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Live per-layer metrics: read from the bench-side taps and the obs
// registries the bench handed to each component, over the measured window.

// regSnap is a before/after snapshot of the whole-window accounting: the
// registry counters the metrics read, summed over the workers' and the
// shards' registries, and the heap's cumulative allocation.
type regSnap struct {
	totalAlloc              float64
	spoolFrames, spoolBytes float64 // workers' spools: frames and bytes appended
	retransFrames, dropped  float64
	uplinkBytes             float64 // shards' uplink bytes written
	dupFrames               float64
	poolHits, poolMisses    float64 // hits include steals
}

func sum(regs []*obs.Registry, name string) float64 {
	var v float64
	for _, r := range regs {
		v += float64(r.Counter(name).Value())
	}
	return v
}

func (f *fleet) snap() regSnap {
	var workers, shards []*obs.Registry
	for _, w := range f.workers {
		workers = append(workers, w.reg)
	}
	for _, sp := range f.shards {
		shards = append(shards, sp.reg)
	}
	all := append(append([]*obs.Registry{}, workers...), shards...)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return regSnap{
		totalAlloc:    float64(mem.TotalAlloc),
		spoolFrames:   sum(workers, "fluct_spool_appended_frames_total"),
		spoolBytes:    sum(workers, "fluct_spool_appended_bytes_total"),
		retransFrames: sum(workers, "fluct_ship_retransmitted_frames_total"),
		dropped:       sum(workers, "fluct_ship_dropped_frames_total"),
		uplinkBytes:   sum(shards, "fluct_ship_bytes_sent_total"),
		dupFrames:     sum(shards, "fluct_collector_duplicate_frames_total"),
		poolHits:      sum(all, "fluct_wire_pool_hits_total") + sum(all, "fluct_wire_pool_steals_total"),
		poolMisses:    sum(all, "fluct_wire_pool_misses_total"),
	}
}

// tailPct is the highest percentile reported for latencies: p95 has ten
// samples beyond it from 200 sets up, which every full-size fleet window
// delivers; the sample count is printed beside it.
const tailPct = 95

// fleetLayers fills the live rows of the layer table.
func (e *fleetEnv) fleetLayers(out *fleetOutcome, before, after regSnap, m map[string]float64) {
	f := e.f
	var shipUs, lateMs, ackMs, visMs []float64
	sets, withinSLO := 0, 0
	for _, r := range out.recs {
		shipUs = append(shipUs, us(r.handoff-r.start-r.late))
		lateMs = append(lateMs, ms(r.late))
		if !r.done {
			continue
		}
		sets++
		ackMs = append(ackMs, ms(r.ack-r.start))
		visMs = append(visMs, ms(r.vis-r.start))
		if r.ack-r.start <= sloAck {
			withinSLO++
		}
	}
	n := float64(max(sets, 1))
	m["ship.shipset_us"] = stats.Median(shipUs)
	m["ship.frames_per_set"] = (after.spoolFrames - before.spoolFrames) / float64(max(len(out.recs), 1))
	for _, w := range f.workers {
		m["ship.queue_hwm"] = max(m["ship.queue_hwm"], w.reg.Gauge("fluct_ship_queue_high_watermark").Value())
	}
	m["ship.dropped_frames"] = after.dropped - before.dropped
	m["ship.retransmitted_frames"] = after.retransFrames - before.retransFrames
	if gets := (after.poolHits - before.poolHits) + (after.poolMisses - before.poolMisses); gets > 0 {
		m["wire.pool_miss_share"] = (after.poolMisses - before.poolMisses) / gets
	}
	m["collector.dup_frames"] = after.dupFrames - before.dupFrames
	for _, s := range f.agg.Fleet().Sources {
		m["collector.aborted_sets"] += float64(s.AbortedSets)
	}
	for _, sp := range f.shards {
		load := sp.collector().ShardLoad()
		var most, total float64
		for _, l := range load {
			most, total = max(most, float64(l)), total+float64(l)
		}
		if total > 0 {
			mean := total / float64(len(load))
			m["collector.shard_imbalance"] = max(m["collector.shard_imbalance"], (most-mean)/mean)
		}
	}
	m["agg.uplink_bytes_per_set"] = (after.uplinkBytes - before.uplinkBytes) / n

	inWindow := func(t time.Duration) bool { return t >= out.w0 && t <= out.w1 }
	var shardTurn, aggTurn, onSum []float64
	f.mu.Lock()
	for _, ta := range f.shardTA {
		if inWindow(ta.read) {
			shardTurn = append(shardTurn, us(ta.ack-ta.read))
		}
	}
	for _, ta := range f.aggTA {
		if inWindow(ta.read) {
			aggTurn = append(aggTurn, us(ta.ack-ta.read))
		}
	}
	for _, s := range f.onSum {
		if inWindow(s.start) {
			onSum = append(onSum, us(s.end-s.start))
		}
	}
	verdicts := append([]verdictEvent{}, f.verdicts...)
	f.mu.Unlock()
	m["collector.turnaround_us"] = stats.Median(shardTurn)
	m["agg.turnaround_us"] = stats.Median(aggTurn)
	m["agg.onsummary_us"] = stats.Median(onSum)

	// detect: the seeded step must be found, on the right source, blaming
	// the right function, and nothing else may fire.
	stepped := ""
	if e.spec.mode == pacedLoop {
		stepped = f.workers[e.stepW].source
	}
	perCore := e.spec.shape.items / genCores
	hit := false
	for _, v := range verdicts {
		if v.v.Rank != 0 {
			continue
		}
		if v.v.Source != stepped || v.setsDone+1 < e.onsetOrd() {
			m["detect.false_alarms"]++
			continue
		}
		if hit {
			continue // later events on the stepped source re-describe the same step
		}
		hit = true
		if v.v.Function == stepFn {
			m["detect.top1_correct"] = 1
		}
		// Items since the onset when the verdict fired: whole sets since,
		// plus how far into the current set the newest offending item sits
		// (both cores advance together, so position ≈ index on its core ×
		// cores).
		pos := int((v.v.Window.LastItem-1)%uint64(perCore)+1) * genCores
		m["detect.verdict_delay_items"] = float64(int(v.setsDone+1-e.onsetOrd())*e.spec.shape.items + pos)
	}

	m["loadgen.late_p95_ms"] = stats.Percentile(lateMs, tailPct)
	m["loadgen.ack_p95_ms"] = stats.Percentile(ackMs, tailPct)
	m["loadgen.visible_p95_ms"] = stats.Percentile(visMs, tailPct)
	m["loadgen.tail_samples"] = float64(sets)
	m["loadgen.ack_slo_share"] = float64(withinSLO) / float64(max(len(out.recs), 1))
	// fleet_catchup's phase A: how fast ShipSet fills the spool while nothing
	// can be delivered, median across rounds.
	spooled := make([]float64, len(out.rounds))
	for _, r := range out.recs {
		if r.round < len(spooled) {
			spooled[r.round]++
		}
	}
	for i, rd := range out.rounds {
		spooled[i] /= (rd.up - rd.w0).Seconds()
	}
	m["loadgen.spool_sets_per_s"] = stats.Median(spooled)
}

// localLayers fills the layer table's rows for local_dataplane, all live:
// the stages of each round, median across rounds.
func localLayers(e *localEnv, rounds []localRound, m map[string]float64) {
	var gen, enc, dec, integ, rep, analyze, hit, samples, stolen []float64
	for _, r := range rounds {
		stolen = append(stolen, r.stolen)
		gen = append(gen, float64(r.packets)/(r.ran-r.start).Seconds())
		enc = append(enc, float64(r.fileBytes)/1e6/(r.encoded-r.ran).Seconds())
		dec = append(dec, float64(r.fileBytes)/1e6/(r.decoded-r.encoded).Seconds())
		integ = append(integ, float64(r.integrated-r.decoded)/float64(r.items))
		rep = append(rep, ms(r.reported-r.integrated))
		analyze = append(analyze, float64(r.items)/(r.reported-r.encoded).Seconds())
		hit = append(hit, float64(r.flowHits)/float64(max(r.flowLookups, 1)))
		samples = append(samples, float64(r.samples)/float64(r.packets))
	}
	m["dataplane.gen_pkts_per_s"] = stats.Median(gen)
	m["trace.encode_mb_per_s"] = stats.Median(enc)
	m["trace.decode_mb_per_s"] = stats.Median(dec)
	m["core.integrate_ns_per_item"] = stats.Median(integ)
	m["report.function_report_ms"] = stats.Median(rep)
	m["report.analyze_items_per_s"] = stats.Median(analyze)
	m["dataplane.flowcache_hit_share"] = stats.Median(hit)
	m["dataplane.samples_per_pkt"] = stats.Median(samples)
	m["dataplane.compile_ms"] = e.compileMs
	m["loadgen.host_steal_share"] = stats.Median(stolen)
}
