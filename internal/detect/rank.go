package detect

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/stats"
)

// minBaselineCount is the observation floor below which a cell's rolling
// baseline is considered unlearned and the ranker falls back to the
// window's own pre-split segment — the cold-start path of a detector
// younger than one window.
const minBaselineCount = 8

// cellAgg accumulates one breakdown cell over the offending items.
type cellAgg struct {
	key   cellKey
	sum   uint64
	items int
}

// rank diffs the offending (post-split) items' per-function, per-core
// breakdown against the rolling baseline and returns the topK ranked
// verdicts for the event. slowdown selects the blame direction: a latency
// regression blames cells that gained time, a recovery-shaped shift cells
// that lost it. Runs only when an event fires, so allocation is fine here.
//
// Cell means are per ITEM, not per appearance: an absent function counts
// as zero. For a function that runs in every item the two are identical,
// but a mix shift — a flow-cache going cold re-exposing the classify path
// in every item instead of 6% of them — changes per-item contribution
// while leaving the per-appearance mean untouched, and blame must follow
// where the items' time actually went.
func (d *Detector) rank(eventID uint64, t int, slowdown bool) []Verdict {
	// Window metadata of the offending tail: bounds, size, worst item.
	post := d.fill - t
	win := Window{Items: post}
	var worstID uint64
	worstLat := math.Inf(-1)
	postItems := map[int32]int{}
	for i := t; i < d.fill; i++ {
		slot := d.slotAt(i)
		if i == t {
			win.FirstItem = d.ids[slot]
		}
		win.LastItem = d.ids[slot]
		postItems[d.cores[slot]]++
		if d.lat[slot] > worstLat {
			worstLat, worstID = d.lat[slot], d.ids[slot]
		}
	}

	// Aggregate the offending items per cell, in first-appearance order so
	// the candidate list (and thus every tie-break below) is deterministic.
	idx := map[cellKey]int{}
	var cells []cellAgg
	for i := t; i < d.fill; i++ {
		slot := d.slotAt(i)
		co := d.cores[slot]
		for _, f := range d.funcs[slot] {
			k := cellKey{name: f.name, core: co}
			j, ok := idx[k]
			if !ok {
				j = len(cells)
				idx[k] = j
				cells = append(cells, cellAgg{key: k})
			}
			cells[j].sum += f.cycles
			cells[j].items++
		}
	}
	if len(cells) == 0 {
		return nil
	}

	// Pre-split per-cell series, for the cold-start fallback reference.
	pre := map[cellKey][]float64{}
	preItems := map[int32]int{}
	for i := 0; i < t; i++ {
		slot := d.slotAt(i)
		co := d.cores[slot]
		preItems[co]++
		for _, f := range d.funcs[slot] {
			k := cellKey{name: f.name, core: co}
			pre[k] = append(pre[k], float64(f.cycles))
		}
	}

	type scored struct {
		key   cellKey
		delta float64 // post per-item mean − baseline per-item mean, cycles
		score float64 // directional robust z-score (ranking key)
	}
	var ranked []scored
	for _, c := range cells {
		postMean := float64(c.sum) / float64(postItems[c.key.core])
		baseMean, baseSigma, baseCount, baseItems := d.base.stats(c.key.name, c.key.core)
		if baseCount < minBaselineCount {
			xs := pre[c.key]
			if len(xs) == 0 {
				// Brand-new cell: no reference at all. Judge it against
				// zero with a sigma floored below.
				baseMean, baseSigma = 0, 0
			} else {
				baseMean = stats.Mean(xs) * float64(len(xs)) / float64(preItems[c.key.core])
				baseSigma = stats.MADSigmaFactor * stats.MAD(xs)
			}
		} else if baseItems > 0 {
			// Per-appearance mean × appearance rate = per-item mean.
			baseMean *= float64(baseCount) / float64(baseItems)
		}
		// Sigma floor: the log-linear buckets quantize at ~6% and a
		// constant-cost function has zero spread — judge shifts against at
		// least 5% of the larger level so Score stays finite and ranked by
		// practical significance.
		floor := 0.05 * math.Max(baseMean, postMean)
		if floor < 1 {
			floor = 1
		}
		if baseSigma < floor {
			baseSigma = floor
		}
		delta := postMean - baseMean
		score := delta / baseSigma
		if !slowdown {
			score = -score
		}
		if score <= 0 {
			continue // moved the wrong way for this event's direction
		}
		ranked = append(ranked, scored{key: c.key, delta: delta, score: score})
	}

	slices.SortFunc(ranked, func(a, b scored) int {
		if a.score != b.score {
			return cmp.Compare(b.score, a.score)
		}
		if a.delta != b.delta {
			return cmp.Compare(b.delta, a.delta)
		}
		if a.key.name != b.key.name {
			return cmp.Compare(a.key.name, b.key.name)
		}
		return cmp.Compare(a.key.core, b.key.core)
	})
	if len(ranked) > topK {
		ranked = ranked[:topK]
	}

	out := make([]Verdict, 0, len(ranked))
	for rank, s := range ranked {
		var deltaNs int64
		if d.cfg.FreqHz > 0 {
			deltaNs = int64(math.Round(s.delta * 1e9 / float64(d.cfg.FreqHz)))
		}
		out = append(out, Verdict{
			Source:   d.cfg.Source,
			Event:    eventID,
			Rank:     rank,
			Item:     worstID,
			Function: s.key.name,
			Core:     s.key.core,
			DeltaNs:  deltaNs,
			Score:    s.score,
			Window:   win,
		})
	}
	return out
}
