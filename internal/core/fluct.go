package core

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Group is a set of data-items expected to behave identically (e.g. queries
// with the same n, packets of the same type). A performance fluctuation is,
// by the paper's definition, unequal performance *within* such a group.
type Group struct {
	// Key identifies the group (chosen by the caller's key function).
	Key string
	// Items are the member reconstructions, in trace order.
	Items []*Item
	// ElapsedUs holds each member's marker-delimited latency in µs.
	ElapsedUs []float64
	// Summary describes ElapsedUs.
	Summary stats.Summary
	// Outliers are members whose latency deviates from the group mean by
	// more than the detection threshold.
	Outliers []*Item
}

// GroupItems partitions the analysis's items by key. Items for which key
// returns "" are skipped. Groups are sorted by key.
func GroupItems(a *Analysis, key func(*Item) string) []Group {
	groups, _ := groupItems(a, key)
	return groups
}

// groupItems is GroupItems, also returning the scratch, sized to the
// largest group, that its summaries sorted in, for DetectFluctuations.
func groupItems(a *Analysis, key func(*Item) string) ([]Group, []float64) {
	// One pass keys every item once and numbers the groups in order of
	// first appearance; the counts then size each group's slices exactly,
	// every group carved from one Items and one ElapsedUs array.
	byKey := map[string]int32{}
	var counts []int
	member := make([]int32, len(a.Items)) // item → group number, -1 for none
	total := 0
	for i := range a.Items {
		k := key(&a.Items[i])
		if k == "" {
			member[i] = -1
			continue
		}
		g, ok := byKey[k]
		if !ok {
			g = int32(len(counts))
			byKey[k] = g
			counts = append(counts, 0)
		}
		member[i] = g
		counts[g]++
		total++
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	items, us := make([]*Item, total), make([]float64, total)
	out := make([]Group, len(keys))
	rank := make([]int32, len(keys)) // group number → index in out
	lo, largest := 0, 0
	for i, k := range keys {
		g := byKey[k]
		rank[g] = int32(i)
		hi := lo + counts[g]
		out[i] = Group{Key: k, Items: items[lo:lo:hi], ElapsedUs: us[lo:lo:hi]}
		lo, largest = hi, max(largest, counts[g])
	}
	for i, g := range member {
		if g < 0 {
			continue
		}
		it := &a.Items[i]
		o := &out[rank[g]]
		o.Items = append(o.Items, it)
		o.ElapsedUs = append(o.ElapsedUs, a.CyclesToMicros(it.ElapsedCycles()))
	}
	scratch := make([]float64, 0, largest)
	for i := range out {
		out[i].Summary = stats.SummarizeSorting(append(scratch[:0], out[i].ElapsedUs...))
	}
	return out, scratch
}

// DetectFluctuations groups items and flags, within each group, the members
// whose latency deviates from the group *median* by more than sigma robust
// standard deviations (1.4826×MAD — a plain stddev would be inflated by the
// very outlier we look for, masking it) and by at least minRelative of the
// median, so that tight groups with sub-cycle jitter are not flagged. When
// the MAD is zero (a majority of identical latencies) any member clearing
// the relative guard is an outlier. It returns only groups containing at
// least one outlier — the fluctuating ones.
func DetectFluctuations(a *Analysis, key func(*Item) string, sigma, minRelative float64) []Group {
	if sigma <= 0 {
		sigma = 3
	}
	groups, scratch := groupItems(a, key)
	var out []Group
	for gi := range groups {
		g := &groups[gi]
		if g.Summary.N < 2 {
			continue
		}
		med := g.Summary.P50
		robust := stats.MADSigmaFactor * stats.MADAboutSorting(append(scratch[:0], g.ElapsedUs...), med)
		for i, us := range g.ElapsedUs {
			dev := us - med
			if dev < 0 {
				dev = -dev
			}
			if dev <= minRelative*med || dev == 0 {
				continue
			}
			if robust == 0 || dev > sigma*robust {
				g.Outliers = append(g.Outliers, g.Items[i])
			}
		}
		if len(g.Outliers) > 0 {
			out = append(out, *g)
		}
	}
	return out
}

// Divergence is one online-detection event: a per-item function estimate
// diverged from its running average. §IV-C3 proposes exactly this to avoid
// dumping the full sample stream: "one can estimate the elapsed time of
// each function online and dump raw samples only when the estimation
// diverges from the average by a threshold".
type Divergence struct {
	Item     uint64
	FnName   string
	Cycles   uint64
	MeanAt   float64
	Relative float64 // |Cycles-Mean| / Mean
}

// String implements fmt.Stringer.
func (d Divergence) String() string {
	return fmt.Sprintf("item %d: %s took %d cycles, %.0f%% off the running mean %.0f",
		d.Item, d.FnName, d.Cycles, d.Relative*100, d.MeanAt)
}

// OnlineMonitor consumes per-item reconstructions one at a time, maintains
// an exponentially weighted running mean per function, and triggers a raw
// dump whenever an estimate diverges beyond the threshold. The warm-up
// count keeps the first observations from triggering against an unsettled
// mean.
type OnlineMonitor struct {
	// Threshold is the relative divergence that triggers a dump (e.g. 0.5
	// = 50% away from the running mean).
	Threshold float64
	// Alpha is the EWMA weight of the newest observation.
	Alpha float64
	// Warmup is the number of per-function observations consumed before
	// divergence checking starts.
	Warmup int

	means map[string]*ewma
	dumps []Divergence
}

type ewma struct {
	mean float64
	n    int
}

// NewOnlineMonitor creates a monitor with the given relative threshold;
// non-positive values select the 50% default.
func NewOnlineMonitor(threshold float64) *OnlineMonitor {
	if threshold <= 0 {
		threshold = 0.5
	}
	return &OnlineMonitor{Threshold: threshold, Alpha: 0.2, Warmup: 3, means: map[string]*ewma{}}
}

// Observe feeds one reconstructed item and returns the divergences it
// triggered (also retained in Dumps).
func (m *OnlineMonitor) Observe(it *Item) []Divergence {
	var fired []Divergence
	for _, f := range it.Funcs {
		if !f.Estimable() {
			continue
		}
		cy := float64(f.Cycles())
		e := m.means[f.Fn.Name]
		if e == nil {
			e = &ewma{}
			m.means[f.Fn.Name] = e
		}
		if e.n >= m.Warmup && e.mean > 0 {
			rel := (cy - e.mean) / e.mean
			if rel < 0 {
				rel = -rel
			}
			if rel > m.Threshold {
				d := Divergence{Item: it.ID, FnName: f.Fn.Name, Cycles: f.Cycles(), MeanAt: e.mean, Relative: rel}
				m.dumps = append(m.dumps, d)
				fired = append(fired, d)
			}
		}
		if e.n == 0 {
			e.mean = cy
		} else {
			e.mean = m.Alpha*cy + (1-m.Alpha)*e.mean
		}
		e.n++
	}
	return fired
}

// Dumps returns every divergence triggered so far, in observation order.
func (m *OnlineMonitor) Dumps() []Divergence { return m.dumps }

// Mean returns the current running mean (cycles) for a function and whether
// it has been observed at all.
func (m *OnlineMonitor) Mean(fnName string) (float64, bool) {
	e, ok := m.means[fnName]
	if !ok {
		return 0, false
	}
	return e.mean, true
}
