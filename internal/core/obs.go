package core

import (
	"time"

	"repro/internal/obs"
)

// Self-telemetry for the integration pipeline (see DESIGN.md §9).
//
// Offline integration publishes once per Integrate call, at batch
// granularity: the per-shard workers run uninstrumented and the final
// merge loop feeds the default registry, so the hot sweep pays nothing
// beyond one per-shard span site (an atomic load when tracing is off).
// The online integrator caches its metric handles at construction —
// when telemetry is disabled the handles are nil and every update is a
// nil-check no-op — and adds its diagnostics to the same counters once,
// when it closes.

// publishIntegrate records one offline integration pass into the default
// registry: diagnostics as counters, per-item elapsed cycles and
// confidence as histograms, and the shard balance the parallel fan-out
// achieved (max items on one shard over the mean — 1.0 is perfectly
// balanced; a skewed workload pins one worker and shows up here long
// before it shows up as a wall-clock fluctuation).
func publishIntegrate(reg *obs.Registry, a *Analysis, results []coreResult, dur time.Duration) {
	if reg == nil {
		return
	}
	reg.Counter("fluct_core_integrations_total").Inc()
	reg.Counter("fluct_core_items_total").Add(uint64(len(a.Items)))
	reg.Histogram("fluct_core_integrate_us").RecordDur(dur)
	publishDiagCounters(reg, a.Diag)

	// Per-item observations accumulate into unsynchronized local batches
	// and land in the shared histograms with one merge each — per-item
	// atomics here would cost ~3× the whole overhead budget on a
	// 2000-item pass.
	var cycles, conf obs.Local
	var confSum float64
	for i := range a.Items {
		it := &a.Items[i]
		cycles.Record(it.ElapsedCycles())
		conf.Record(uint64(it.Confidence * 1000))
		confSum += it.Confidence
	}
	reg.Histogram("fluct_core_item_cycles").MergeLocal(&cycles)
	reg.Histogram("fluct_core_item_confidence_milli").MergeLocal(&conf)
	if n := len(a.Items); n > 0 {
		reg.Gauge("fluct_core_mean_confidence").Set(confSum / float64(n))
	}

	reg.Gauge("fluct_core_shards").SetInt(len(results))
	if len(results) > 0 && len(a.Items) > 0 {
		maxItems := 0
		for i := range results {
			if n := len(results[i].items); n > maxItems {
				maxItems = n
			}
		}
		mean := float64(len(a.Items)) / float64(len(results))
		reg.Gauge("fluct_core_shard_imbalance").Set(float64(maxItems) / mean)
	}
}

// publishDiagCounters accumulates one pass's diagnostics — an Integrate
// call or a closed StreamIntegrator — into the running counters
// (counters, not gauges: every pass adds its damage, so rates are
// meaningful across a long-running process).
func publishDiagCounters(reg *obs.Registry, d Diagnostics) {
	if reg == nil {
		return
	}
	reg.Counter("fluct_core_unattributed_samples_total").Add(uint64(d.UnattributedSamples))
	reg.Counter("fluct_core_unresolved_samples_total").Add(uint64(d.UnresolvedSamples))
	reg.Counter("fluct_core_orphan_end_markers_total").Add(uint64(d.OrphanEndMarkers))
	reg.Counter("fluct_core_reopened_items_total").Add(uint64(d.ReopenedItems))
	reg.Counter("fluct_core_unclosed_items_total").Add(uint64(d.UnclosedItems))
	reg.Counter("fluct_core_repaired_markers_total").Add(uint64(d.RepairedMarkers))
	reg.Counter("fluct_core_ignored_event_samples_total").Add(uint64(d.IgnoredEventSamples))
	reg.Counter("fluct_core_symcache_hits_total").Add(uint64(d.SymCacheHits))
	reg.Counter("fluct_core_symcache_misses_total").Add(uint64(d.SymCacheMisses))
}

// streamMetrics is the online integrator's cached metric handles. A nil
// handle (telemetry disabled at construction) makes every update a
// nil-check no-op, keeping the push path allocation- and branch-light.
type streamMetrics struct {
	reg        *obs.Registry
	items      *obs.Counter
	recycled   *obs.Counter
	allocs     *obs.Counter
	outOfOrder *obs.Counter
	freelist   *obs.Gauge
	open       *obs.Gauge
	cycles     *obs.Histogram
	conf       *obs.Histogram
}

func newStreamMetrics(reg *obs.Registry) streamMetrics {
	if reg == nil {
		return streamMetrics{}
	}
	return streamMetrics{
		reg:        reg,
		items:      reg.Counter("fluct_core_stream_items_total"),
		recycled:   reg.Counter("fluct_core_stream_recycled_total"),
		allocs:     reg.Counter("fluct_core_stream_item_allocs_total"),
		outOfOrder: reg.Counter("fluct_core_stream_out_of_order_total"),
		freelist:   reg.Gauge("fluct_core_stream_freelist"),
		open:       reg.Gauge("fluct_core_stream_open_items"),
		cycles:     reg.Histogram("fluct_core_item_cycles"),
		conf:       reg.Histogram("fluct_core_item_confidence_milli"),
	}
}
