package main

import (
	"encoding/json"
	"os"
)

// The benchmark's declaration. These tables are the source of truth for
// every name and unit a run emits; BENCHMARK.json at the repository root
// is `fluctbench -spec` written to a file, and a test holds the two equal.

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchmarkDecl struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []e2eDecl      `json:"end_to_end"`
	PerLayer   []layerDecl    `json:"per_layer"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloadDecls = []workloadDecl{
	{"fleet_bulk", "closed loop, 2 sources x 2000-item sets at reset 1000, about 5800 frames a set: the per-frame and per-record layers (ShipSet, spool, socket, wire codec, stream integrate, detect) do the work"},
	{"fleet_smallsets", "closed loop, 2 sources x 16-item sets beside 128 idle sources: per-set layers (whole-fleet checkpoint, ack, summary, uplink, merge) dominate, per-record layers idle"},
	{"fleet_paced", "open loop, 2 x 40 sets/s of 300-item sets timed from when due, one seeded 2x step in one function: latency below saturation, and a verdict must reach the aggregator"},
	{"fleet_catchup", "rounds: collectors down while 2 sources spool a backlog, then each shard collector comes back re-created from its checkpoint and the backlog replays from disk: spool reads, checkpoint restore"},
	{"local_dataplane", "no fleet: dataplane.Run on the dpchain spec, trace file encode/decode, batch Integrate, function report; ship/spool/wire/collector/agg do nothing here"},
}

var e2eDecls = []e2eDecl{
	{"setup_s", "s", lower, 0.25},
	{"sets_per_s", "sets/s", higher, 0.25},
	{"handoff_p50_ms", "ms", lower, 0.25},
	{"ack_p50_ms", "ms", lower, 0.25},
	{"visible_p50_ms", "ms", lower, 0.25},
	{"cpu_ms_per_set", "ms", lower, 0.25},
	{"bytes_per_item", "B", lower, 0.01},
	{"alloc_bytes_per_item", "B", lower, 0.15},
	{"peak_rss_mb", "MB", lower, 0.25},
}

var layerDecls = []layerDecl{
	{"ship.shipset_us", "us", lower},
	{"ship.frames_per_set", "count", lower},
	{"ship.queue_hwm", "count", lower},
	{"ship.dropped_frames", "count", lower},
	{"ship.retransmitted_frames", "count", lower},
	{"wire.encode_ns_per_record", "ns", lower},
	{"wire.decode_ns_per_record", "ns", lower},
	{"wire.bytes_per_record", "B", lower},
	{"wire.socket_ns_per_frame", "ns", lower},
	{"wire.summary_codec_us", "us", lower},
	{"wire.summary_bytes_per_set", "B", lower},
	{"wire.pool_miss_share", "share", lower},
	{"spool.append_ns_per_frame", "ns", lower},
	{"spool.append_mb_per_s", "MB/s", higher},
	{"spool.replay_ns_per_frame", "ns", lower},
	{"spool.ack_us", "us", lower},
	{"spool.open_recover_ms", "ms", lower},
	{"collector.turnaround_us", "us", lower},
	{"collector.checkpoint_ms", "ms", lower},
	{"collector.checkpoint_bytes", "B", lower},
	{"collector.restore_ms", "ms", lower},
	{"collector.fleet_ms", "ms", lower},
	{"collector.dup_frames", "count", lower},
	{"collector.aborted_sets", "count", lower},
	{"collector.shard_imbalance", "share", lower},
	{"core.stream_ns_per_record", "ns", lower},
	{"core.stream_allocs_per_item", "count", lower},
	{"core.integrate_ns_per_item", "ns", lower},
	{"symtab.resolve_ns", "ns", lower},
	{"symtab.cache_hit_share", "share", higher},
	{"detect.update_ns_per_item", "ns", lower},
	{"detect.verdict_delay_items", "count", lower},
	{"detect.false_alarms", "count", lower},
	{"detect.top1_correct", "count", higher},
	{"trace.gapsummary_us_per_set", "us", lower},
	{"trace.encode_mb_per_s", "MB/s", higher},
	{"trace.decode_mb_per_s", "MB/s", higher},
	{"agg.onsummary_us", "us", lower},
	{"agg.uplink_bytes_per_set", "B", lower},
	{"agg.turnaround_us", "us", lower},
	{"agg.checkpoint_ms", "ms", lower},
	{"agg.checkpoint_bytes", "B", lower},
	{"agg.fleet_ms", "ms", lower},
	{"agg.ring_owner_ns", "ns", lower},
	{"agg.ring_imbalance", "share", lower},
	{"dataplane.gen_pkts_per_s", "pkts/s", higher},
	{"dataplane.classify_ns_per_pkt", "ns", lower},
	{"dataplane.flowcache_hit_share", "share", higher},
	{"dataplane.samples_per_pkt", "count", lower},
	{"dataplane.compile_ms", "ms", lower},
	{"report.function_report_ms", "ms", lower},
	{"report.analyze_items_per_s", "items/s", higher},
	{"loadgen.late_p95_ms", "ms", lower},
	{"loadgen.ack_p95_ms", "ms", lower},
	{"loadgen.visible_p95_ms", "ms", lower},
	{"loadgen.tail_samples", "count", higher},
	{"loadgen.ack_slo_share", "share", higher},
	{"loadgen.spool_sets_per_s", "sets/s", higher},
	{"loadgen.trace_overhead_share", "share", lower},
	{"loadgen.trace_overhead_spread", "share", lower},
	{"loadgen.host_steal_share", "share", lower},
	{"budget.attributed_share", "share", higher},
	{"budget.residual_ms_per_set", "ms", lower},
}

// runSeconds is the measured window the driver asks for.
const runSeconds = 20

func declaration() benchmarkDecl {
	return benchmarkDecl{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDecls,
		EndToEnd:   e2eDecls,
		PerLayer:   layerDecls,
	}
}

// writeSpec prints the declaration as BENCHMARK.json's bytes.
func writeSpec(f *os.File) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(declaration())
}
