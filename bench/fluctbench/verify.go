package main

import (
	"bytes"
	"fmt"

	"repro/internal/collector"
	"repro/internal/core"
)

// verifyFleet is the fleet workloads' output check. It reads the settled
// state at both tiers and compares it with what the bench shipped; every
// disagreement is one problem line, and any problem fails the run.
//
//   - per source, shard and aggregator agree that Sets == sets shipped,
//     with nothing aborted and no record lost;
//   - the aggregator received each source's row from its ring owner;
//   - the items of each live source's last set, read back from the
//     aggregator, render byte-identical to a local StreamIntegrator pass
//     over that set;
//   - fleet_paced: the seeded step produced a verdict at the aggregator
//     whose top-ranked cause is the stepped function.
func (e *fleetEnv) verifyFleet(out *fleetOutcome) []string {
	f := e.f
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	view := f.agg.Fleet()
	rows := map[string]collector.SourceSummary{}
	for _, s := range view.Sources {
		rows[s.ID] = s
	}
	want := map[string]uint64{}
	for _, id := range e.idleIDs {
		want[id] = 1
	}
	last := map[string]setRec{}
	for _, w := range f.workers {
		want[w.source] = w.shipped
	}
	for _, r := range out.recs {
		if !r.done {
			bad("%s set %d was never acknowledged at both tiers", r.key.source, r.key.set)
		}
		if r.key.set >= last[r.key.source].key.set {
			last[r.key.source] = r
		}
	}
	if len(rows) != len(want) {
		bad("aggregator holds %d sources, want %d", len(rows), len(want))
	}
	for id, sets := range want {
		owner := f.ring.Owner(id)
		if got := f.agg.SourceShard(id); got != owner {
			bad("%s: aggregator merged it from %q, ring owner is %q", id, got, owner)
		}
		row, ok := rows[id]
		if !ok {
			bad("%s: missing at the aggregator", id)
			continue
		}
		if row.Sets != sets || row.AbortedSets != 0 || row.LostMarkers+row.LostSamples != 0 || row.Degraded {
			bad("%s at aggregator: sets=%d (want %d) aborted=%d lost=%d+%d degraded=%v", id,
				row.Sets, sets, row.AbortedSets, row.LostMarkers, row.LostSamples, row.Degraded)
		}
		src := f.shards[owner].collector().Source(id)
		if src == nil {
			bad("%s: unknown to its shard %s", id, owner)
			continue
		}
		if src.Sets() != sets {
			bad("%s at shard: sets=%d, want %d", id, src.Sets(), sets)
		}
	}

	// Items read back at the far end vs a local pass over the same set.
	got := map[string][]core.Item{}
	for _, fi := range view.TopSlow {
		got[fi.Source] = append(got[fi.Source], fi.Item)
	}
	for wi, w := range f.workers {
		rec, ok := last[w.source]
		if !ok {
			continue
		}
		set := e.setFor(wi, int(rec.key.set-e.warm)-1)
		ref, err := streamItems(set)
		if err != nil {
			bad("%s: local reference pass: %v", w.source, err)
			continue
		}
		items := got[w.source]
		sortItems(items)
		if !bytes.Equal(renderItems(set.FreqHz, items), renderItems(set.FreqHz, ref)) {
			bad("%s: last set's items at the aggregator differ from a local StreamIntegrator pass (%d vs %d items)",
				w.source, len(items), len(ref))
		}
	}

	if e.spec.mode == pacedLoop {
		stepped := f.workers[e.stepW].source
		found := false
		for _, v := range view.Verdicts {
			if v.Source == stepped && v.Rank == 0 {
				found = true
				if v.Function != stepFn {
					bad("%s: verdict blames %s, the seeded step is in %s", stepped, v.Function, stepFn)
				}
			}
		}
		if !found {
			bad("%s: the seeded step in %s reached the aggregator as no verdict", stepped, stepFn)
		}
	}
	return problems
}
