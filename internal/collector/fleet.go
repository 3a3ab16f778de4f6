package collector

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/wire"
)

// SourceSummary is one host's row in the fleet view.
type SourceSummary struct {
	// ID is the shipper's source tag.
	ID string `json:"id"`
	// Sets and AbortedSets count complete and mid-set-abandoned deliveries.
	Sets        uint64 `json:"sets"`
	AbortedSets uint64 `json:"aborted_sets,omitempty"`
	// Items is the item count of the last completed set.
	Items int `json:"items"`
	// MeanConfidence averages Item.Confidence over the last completed set.
	MeanConfidence float64 `json:"mean_confidence"`
	// Degraded reports whether the last set's gap scan flagged loss or the
	// transport lost records.
	Degraded bool `json:"degraded"`
	// GapLine is the last set's one-line GapSummary verdict.
	GapLine string `json:"gap_line,omitempty"`
	// LostMarkers/LostSamples are cumulative transport-loss counts
	// (declared in SetEnd frames but never received).
	LostMarkers uint64 `json:"lost_markers,omitempty"`
	LostSamples uint64 `json:"lost_samples,omitempty"`
	// CRCErrors and Disconnects count cumulative link damage.
	CRCErrors   uint64 `json:"crc_errors,omitempty"`
	Disconnects uint64 `json:"disconnects,omitempty"`
	// ActiveVerdicts is the source's unresolved fluctuation-event count
	// (zero when detection is off or the source is steady).
	ActiveVerdicts uint32 `json:"active_verdicts,omitempty"`
}

// SummaryOf is a source's fleet row: the TFleetSummary header its
// collector ships for it, its last set's item count and its unresolved
// fluctuation-event count. It is the one place a row is built — the
// collector passes the header it ships (headerLocked), the aggregator the
// one it merged — so both tiers show a source alike by construction.
func SummaryOf(h wire.FleetSummary, items int, activeVerdicts uint32) SourceSummary {
	return SourceSummary{
		ID:             h.Source,
		Sets:           h.Sets,
		AbortedSets:    h.AbortedSets,
		Items:          items,
		MeanConfidence: h.MeanConf,
		Degraded:       h.Degraded,
		GapLine:        h.GapLine,
		LostMarkers:    h.LostMarkers,
		LostSamples:    h.LostSamples,
		CRCErrors:      h.CRCErrors,
		Disconnects:    h.Disconnects,
		ActiveVerdicts: activeVerdicts,
	}
}

// FleetItem tags an item with the source it came from.
type FleetItem struct {
	// Source is the shipping host's ID.
	Source string `json:"source"`
	// ElapsedUs is the item's on-core time in microseconds on its host's
	// clock (fleet hosts may run at different frequencies, so cycles are
	// not comparable across sources — microseconds are).
	ElapsedUs float64 `json:"elapsed_us"`
	// Item is the reconstruction.
	Item core.Item `json:"item"`
}

// FleetView is the merged cross-host state: per-source health plus the
// fleet-wide top-K slowest items — the cross-host comparison that turns
// one host's slow item into a diagnosable pattern.
type FleetView struct {
	// Sources holds one summary per known source, ascending by ID.
	Sources []SourceSummary `json:"sources"`
	// TopSlow holds the K slowest items (by elapsed time) across all
	// sources' last completed sets, slowest first.
	TopSlow []FleetItem `json:"top_slow"`
	// Verdicts holds every source's recent fluctuation verdicts, ordered
	// by (source, event, rank) — the fleet-wide answer to "what changed,
	// where, and why".
	Verdicts []detect.Verdict `json:"verdicts,omitempty"`
}

// SourceRow is one source's contribution to a merged fleet view: the
// summary row, the verdict snapshot and the last completed set as the
// TFleetSummary payload it was stored as. It is the unit both tiers merge
// — a collector builds rows from its live Source state, the global
// aggregator from shipped FleetSummary frames — and feeding either set
// through MergeFleet is what makes the two-tier report byte-equivalent to
// the single-collector one.
type SourceRow struct {
	Summary SourceSummary
	// Payload is the last completed set, with its clock, as a payload its
	// tier built or checked (nil before the first set, or when the set's
	// items did not encode). Never mutated: a row may hold it past the
	// source's locks.
	Payload []byte
	// Verdicts is the source's recent fluctuation-verdict snapshot (empty
	// when detection is off).
	Verdicts []detect.Verdict
}

// MergeSummaries merges per-source rows into the fleet view without its
// top-K items, which is all /verdicts reads: summaries ascending by ID,
// verdicts in (source, event, rank) order.
func MergeSummaries(rows []SourceRow) FleetView {
	// Sized once; nil when there is no row, as /fleet has always shown it.
	v := FleetView{Sources: slices.Grow([]SourceSummary(nil), len(rows))}
	for _, r := range rows {
		v.Sources = append(v.Sources, r.Summary)
		v.Verdicts = append(v.Verdicts, r.Verdicts...)
	}
	slices.SortFunc(v.Sources, func(a, b SourceSummary) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(v.Verdicts, func(a, b detect.Verdict) int {
		if a.Source != b.Source {
			return cmp.Compare(a.Source, b.Source)
		}
		if a.Event != b.Event {
			return cmp.Compare(a.Event, b.Event)
		}
		return cmp.Compare(a.Rank, b.Rank)
	})
	return v
}

// MergeFleet merges per-source rows into one fleet view: MergeSummaries,
// plus the top-K slowest items (by elapsed time on each item's own clock)
// across every row's last completed set, walked from its payload. It keeps
// at most 2K candidates, cut back to the best K whenever they fill; once
// cut, the K-th best bounds what may enter. Only an item that enters is
// copied, its spans into chunks kept for the read. The order is total, so
// the view is the one a sort of every item would give.
func MergeFleet(topK int, rows []SourceRow) FleetView {
	v := MergeSummaries(rows)
	var top []FleetItem
	var spans []core.FuncSpan
	cut := false // top[:topK] is the best K so far, in order
	for _, r := range rows {
		if top == nil && r.Summary.Items > 0 {
			// Non-nil once a row has items, as /fleet has always shown it.
			top = make([]FleetItem, 0, max(0, min(2*topK, r.Summary.Items)))
		}
		if r.Payload == nil || topK <= 0 {
			continue
		}
		_, _, _, err := wire.WalkFleetSummary(r.Payload, func(freq uint64, it core.Item) {
			fi := FleetItem{Source: r.Summary.ID, ElapsedUs: float64(it.ElapsedCycles()) * 1e6 / float64(freq), Item: it}
			if cut && slowerFirst(fi, top[topK-1]) >= 0 {
				return
			}
			if n := len(it.Funcs); n > 0 {
				// The walk reuses it.Funcs, so the spans are copied into a
				// chunk and kept as a capped view. A full chunk is left to
				// the views into it and a new one, twice its size, begun:
				// no span is copied twice, however many items enter.
				if cap(spans)-len(spans) < n {
					spans = make([]core.FuncSpan, 0, max(n, 2*cap(spans)))
				}
				spans = append(spans, it.Funcs...)
				fi.Item.Funcs = spans[len(spans)-n : len(spans) : len(spans)]
			}
			if top = append(top, fi); len(top) == 2*topK {
				slices.SortFunc(top, slowerFirst)
				top, cut = top[:topK], true
			}
		})
		if err != nil {
			panic(undecodable(r.Summary.ID, err))
		}
	}
	slices.SortFunc(top, slowerFirst)
	v.TopSlow = top[:max(0, min(topK, len(top)))]
	return v
}

// slowerFirst orders fleet items slowest first, ties broken on (source,
// item, core).
func slowerFirst(a, b FleetItem) int {
	if a.ElapsedUs != b.ElapsedUs {
		return cmp.Compare(b.ElapsedUs, a.ElapsedUs)
	}
	if a.Source != b.Source {
		return cmp.Compare(a.Source, b.Source)
	}
	if a.Item.ID != b.Item.ID {
		return cmp.Compare(a.Item.ID, b.Item.ID)
	}
	return cmp.Compare(a.Item.Core, b.Item.Core)
}

// storedItems decodes a stored set's payload for Source.Items.
func storedItems(id string, p []byte) (freq uint64, items []core.Item) {
	if p == nil {
		return 0, nil
	}
	fs, err := wire.DecodeFleetSummary(p)
	if err != nil {
		panic(undecodable(id, err))
	}
	return fs.FreqHz, fs.Items
}

// undecodable is the panic of a stored set that fails its parse. Each tier
// keeps only payloads it encoded or checked (wire.CheckFleetSummary), so
// one that does not parse is a bug.
func undecodable(id string, err error) string {
	return fmt.Sprintf("collector: source %q: a stored summary does not decode: %v", id, err)
}

// Fleet assembles the current fleet view.
func (c *Collector) Fleet() FleetView {
	return MergeFleet(c.cfg.TopK, c.rows(true))
}

// rows snapshots each fleet member's row (handoff peer streams are
// plumbing; internal is immutable). With payloads, a row carries the last
// set, read under the apply mutex as the checkpoint reads it; without,
// only s.mu is taken, so a /verdicts read never waits on an apply. Verdict
// snapshots are replaced whole, never written into, so rows share them.
func (c *Collector) rows(payloads bool) []SourceRow {
	srcs := c.appendSources(nil)
	rows := make([]SourceRow, 0, len(srcs))
	for _, s := range srcs {
		if s.life.Internal {
			continue
		}
		if payloads {
			s.applyMu.Lock()
		}
		s.mu.Lock()
		row := SourceRow{Summary: SummaryOf(s.headerLocked(), s.itemCount, uint32(s.activeVerdicts)), Verdicts: s.verdicts}
		if payloads {
			row.Payload = s.payloadLocked()
		}
		s.mu.Unlock()
		if payloads {
			s.applyMu.Unlock()
		}
		rows = append(rows, row)
	}
	return rows
}

// headerLocked is the TFleetSummary header of the source's row, without
// items: what OnSummary ships for it, and what its own fleet row is built
// from (SummaryOf). Caller holds s.mu.
func (s *Source) headerLocked() wire.FleetSummary {
	r := &s.row
	return wire.FleetSummary{
		Source:      s.ID,
		FreqHz:      r.FreqHz,
		Sets:        r.Sets,
		AbortedSets: r.AbortedSets,
		LostMarkers: r.LostMarkers,
		LostSamples: r.LostSamples,
		CRCErrors:   r.CRCErrors,
		Disconnects: r.Disconnects,
		MeanConf:    r.LastMeanConf,
		Degraded:    r.LastDegraded,
		GapLine:     r.Gaps.String(),
	}
}

// Render writes the fleet view as a human-readable report.
func (v FleetView) Render(w io.Writer) {
	fmt.Fprintf(w, "fleet: %d sources\n", len(v.Sources))
	for _, s := range v.Sources {
		state := "healthy"
		if s.Degraded {
			state = "DEGRADED"
		}
		fmt.Fprintf(w, "  %-16s %s sets=%d items=%d conf=%.3f lost=%d+%d crc=%d disc=%d\n",
			s.ID, state, s.Sets, s.Items, s.MeanConfidence,
			s.LostMarkers, s.LostSamples, s.CRCErrors, s.Disconnects)
		if s.GapLine != "" {
			fmt.Fprintf(w, "  %-16s %s\n", "", s.GapLine)
		}
	}
	v.RenderTopK(w)
}

// RenderTopK writes just the top-K-slowest-items section of the report.
// The chaos harness compares this section alone between a wounded run and
// a clean one: the items must match byte-for-byte even when link-damage
// counters (disconnects, CRC errors) legitimately differ.
func (v FleetView) RenderTopK(w io.Writer) {
	if len(v.TopSlow) == 0 {
		return
	}
	fmt.Fprintf(w, "top %d slowest items across the fleet:\n", len(v.TopSlow))
	for i, fi := range v.TopSlow {
		fmt.Fprintf(w, "  %2d. %-16s item=%d core=%d %.2fus samples=%d conf=%.3f\n",
			i+1, fi.Source, fi.Item.ID, fi.Item.Core, fi.ElapsedUs,
			fi.Item.SampleCount, fi.Item.Confidence)
	}
}

// Health renders the fleet verdict for /healthz: OK while every connected
// source's last set was clean AND no fluctuation event is unresolved —
// plus the drain/import lifecycle conditions (a draining collector votes
// not-OK so it falls out of the load balancer while it hands off).
func (c *Collector) Health() obs.Health {
	return c.Status().Health()
}

// FleetCounts is what the fleet health verdict reads, summed over the
// sources. Both tiers fill it straight from their rows, so a health read
// copies no summary, formats no gap line and sorts nothing.
type FleetCounts struct {
	sources, degraded, verdicts int
	sets, lost, active          uint64
}

// Add counts one source: whether its last set was degraded, its
// cumulative sets and lost records, its unresolved fluctuation events and
// how many recent verdicts it holds.
func (n *FleetCounts) Add(degraded bool, sets, lost uint64, active uint32, verdicts int) {
	n.sources++
	if degraded {
		n.degraded++
	}
	n.sets += sets
	n.lost += lost
	n.active += uint64(active)
	n.verdicts += verdicts
}

// FleetStatus derives the per-condition health status from the fleet's
// counts — shared by both tiers so a shard collector and the global
// aggregator judge the same fleet the same way. Two conditions (DESIGN.md
// §14):
//
//   - transport: degraded while any source's last set shows gap-scan damage
//     or transport loss;
//   - detect: degraded while any source has an unresolved fluctuation
//     event.
func FleetStatus(n FleetCounts) health.Status {
	transport := health.Condition{
		Name: "transport",
		OK:   n.degraded == 0,
		Fields: map[string]float64{
			"sources":          float64(n.sources),
			"degraded_sources": float64(n.degraded),
			"sets":             float64(n.sets),
			"lost_records":     float64(n.lost),
		},
	}
	switch {
	case n.sources == 0:
		transport.Detail = "no shippers connected yet"
	case n.degraded > 0:
		transport.Detail = fmt.Sprintf("%d/%d sources degraded", n.degraded, n.sources)
	default:
		transport.Detail = fmt.Sprintf("%d sources clean", n.sources)
	}

	det := health.Condition{
		Name: "detect",
		OK:   n.active == 0,
		Fields: map[string]float64{
			"active_verdicts": float64(n.active),
			"verdicts":        float64(n.verdicts),
		},
	}
	if n.active == 0 {
		det.Detail = "no active fluctuation events"
	} else {
		det.Detail = fmt.Sprintf("%d unresolved fluctuation events", n.active)
	}

	var st health.Status
	st.Add(transport)
	st.Add(det)
	return st
}

// counts fills the fleet's health counts from each fleet member's row
// under s.mu alone: a health probe never waits on an apply.
func (c *Collector) counts() FleetCounts {
	var n FleetCounts
	for _, s := range c.appendSources(nil) {
		if s.life.Internal {
			continue
		}
		s.mu.Lock()
		r := &s.row
		n.Add(r.LastDegraded, r.Sets, r.LostMarkers+r.LostSamples, uint32(s.activeVerdicts), len(s.verdicts))
		s.mu.Unlock()
	}
	return n
}

// VerdictsView is the /verdicts endpoint's JSON body.
type VerdictsView struct {
	// Active is the fleet-wide unresolved change-event count.
	Active int `json:"active"`
	// Verdicts lists every source's recent verdicts, (source, event, rank)
	// order.
	Verdicts []detect.Verdict `json:"verdicts"`
}

// VerdictsOf projects the verdict view out of a fleet view.
func VerdictsOf(v FleetView) VerdictsView {
	vv := VerdictsView{Verdicts: v.Verdicts}
	for _, s := range v.Sources {
		vv.Active += int(s.ActiveVerdicts)
	}
	if vv.Verdicts == nil {
		vv.Verdicts = []detect.Verdict{}
	}
	return vv
}

// Handler returns the collector's HTTP surface: the standard self-telemetry
// endpoints (/metrics, /healthz fed by the fleet verdict, /debug/...) plus
// /fleet, the merged cross-host view, and /verdicts, the fluctuation
// diagnosis feed, as JSON.
func (c *Collector) Handler() http.Handler {
	return ViewHandler(c.cfg.Registry, c.Health, c.Fleet, func() FleetView { return MergeSummaries(c.rows(false)) })
}

// ViewHandler is the HTTP surface both tiers serve: the obs endpoints with
// health as /healthz, fleet's view as indented JSON on /fleet, and the
// verdict projection of summaries' view (MergeSummaries) on /verdicts.
func ViewHandler(reg *obs.Registry, health func() obs.Health, fleet, summaries func() FleetView) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(obs.HandlerOptions{Registry: reg, Health: health}))
	serveJSON := func(path string, view func() any) {
		mux.HandleFunc(path, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			_ = enc.Encode(view())
		})
	}
	serveJSON("/fleet", func() any { return fleet() })
	serveJSON("/verdicts", func() any { return VerdictsOf(summaries()) })
	return mux
}

// RenderItems writes one line per item — ID, interval, sample counts,
// confidence, and every function span — in a fixed format. It is the
// byte-comparable report the loopback equivalence test pins: rendering the
// collector's items for a shipped set must equal rendering a local
// Integrate of the same set.
func RenderItems(w io.Writer, freqHz uint64, items []core.Item) {
	fmt.Fprintf(w, "freq=%d items=%d\n", freqHz, len(items))
	for i := range items {
		it := &items[i]
		fmt.Fprintf(w, "item=%d core=%d begin=%d end=%d samples=%d unresolved=%d conf=%.4f funcs=",
			it.ID, it.Core, it.BeginTSC, it.EndTSC, it.SampleCount, it.UnresolvedSamples, it.Confidence)
		for j, f := range it.Funcs {
			if j > 0 {
				fmt.Fprint(w, ",")
			}
			fmt.Fprintf(w, "%s:%d:%d:%d", f.Fn.Name, f.Samples, f.FirstTSC, f.LastTSC)
		}
		fmt.Fprintln(w)
	}
}
