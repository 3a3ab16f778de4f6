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
// summary row, the clock needed to convert the items' cycles to
// comparable microseconds, and the last completed set's items. It is the
// unit both tiers merge — a collector builds rows from its live Source
// state, the global aggregator rebuilds them from shipped FleetSummary
// frames — and feeding either set through MergeFleet is what makes the
// two-tier report byte-equivalent to the single-collector one.
type SourceRow struct {
	Summary SourceSummary
	FreqHz  uint64
	Items   []core.Item
	// Verdicts is the source's recent fluctuation-verdict snapshot (empty
	// when detection is off).
	Verdicts []detect.Verdict
}

// MergeFleet merges per-source rows into one fleet view: summaries
// ascending by ID, plus the top-K slowest items (by elapsed time on each
// item's own clock) across every row's last completed set.
func MergeFleet(topK int, rows []SourceRow) FleetView {
	var v FleetView
	var all []FleetItem
	for _, r := range rows {
		v.Sources = append(v.Sources, r.Summary)
		v.Verdicts = append(v.Verdicts, r.Verdicts...)
		for i := range r.Items {
			it := r.Items[i]
			us := 0.0
			if r.FreqHz > 0 {
				us = float64(it.ElapsedCycles()) * 1e6 / float64(r.FreqHz)
			}
			all = append(all, FleetItem{Source: r.Summary.ID, ElapsedUs: us, Item: it})
		}
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

	// Slowest first; deterministic tie-break on (source, item, core).
	slices.SortFunc(all, func(a, b FleetItem) int {
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
	})
	if len(all) > topK {
		all = all[:topK]
	}
	v.TopSlow = all
	return v
}

// Fleet assembles the current fleet view.
func (c *Collector) Fleet() FleetView {
	srcs := c.sourceList()
	rows := make([]SourceRow, 0, len(srcs))
	for _, s := range srcs {
		if s.internal {
			// Handoff peer streams are transport plumbing, not fleet
			// members (internal is immutable after creation).
			continue
		}
		s.mu.Lock()
		row := SourceRow{Summary: s.summaryLocked(), FreqHz: s.freq,
			Items:    make([]core.Item, len(s.items)),
			Verdicts: append([]detect.Verdict(nil), s.verdicts...)}
		for i := range s.items {
			row.Items[i] = s.items[i]
			row.Items[i].Funcs = append([]core.FuncSpan(nil), s.items[i].Funcs...)
		}
		s.mu.Unlock()
		rows = append(rows, row)
	}
	return MergeFleet(c.cfg.TopK, rows)
}

// summaryLocked builds the source's fleet row. Caller holds s.mu.
func (s *Source) summaryLocked() SourceSummary {
	return SourceSummary{
		ID:             s.ID,
		Sets:           s.sets,
		AbortedSets:    s.abortedSets,
		Items:          len(s.items),
		MeanConfidence: s.lastMeanConf,
		Degraded:       s.lastDegraded,
		GapLine:        s.gaps.String(),
		LostMarkers:    s.lostMarkers,
		LostSamples:    s.lostSamples,
		CRCErrors:      s.crcErrors,
		Disconnects:    s.disconnects,
		ActiveVerdicts: uint32(s.activeVerdicts),
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

// FleetStatus derives the per-condition health status from a fleet view —
// shared by both tiers so a shard collector and the global aggregator judge
// the same view the same way. Two conditions (DESIGN.md §14):
//
//   - transport: degraded while any source's last set shows gap-scan damage
//     or transport loss;
//   - detect: degraded while any source has an unresolved fluctuation
//     event.
func FleetStatus(v FleetView) health.Status {
	degraded := 0
	var sets, lost uint64
	var active uint64
	for _, s := range v.Sources {
		if s.Degraded {
			degraded++
		}
		sets += s.Sets
		lost += s.LostMarkers + s.LostSamples
		active += uint64(s.ActiveVerdicts)
	}

	transport := health.Condition{
		Name: "transport",
		OK:   degraded == 0,
		Fields: map[string]float64{
			"sources":          float64(len(v.Sources)),
			"degraded_sources": float64(degraded),
			"sets":             float64(sets),
			"lost_records":     float64(lost),
		},
	}
	switch {
	case len(v.Sources) == 0:
		transport.Detail = "no shippers connected yet"
	case degraded > 0:
		transport.Detail = fmt.Sprintf("%d/%d sources degraded", degraded, len(v.Sources))
	default:
		transport.Detail = fmt.Sprintf("%d sources clean", len(v.Sources))
	}

	det := health.Condition{
		Name: "detect",
		OK:   active == 0,
		Fields: map[string]float64{
			"active_verdicts": float64(active),
			"verdicts":        float64(len(v.Verdicts)),
		},
	}
	if active == 0 {
		det.Detail = "no active fluctuation events"
	} else {
		det.Detail = fmt.Sprintf("%d unresolved fluctuation events", active)
	}

	var st health.Status
	st.Add(transport)
	st.Add(det)
	return st
}

// FleetHealth is FleetStatus flattened to the obs.Health /healthz serves.
func FleetHealth(v FleetView) obs.Health {
	return FleetStatus(v).Health()
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
	return ViewHandler(c.cfg.Registry, c.Health, c.Fleet)
}

// ViewHandler is the HTTP surface both tiers serve: the obs endpoints with
// health as /healthz, and fleet's view as indented JSON on /fleet and its
// verdict projection on /verdicts.
func ViewHandler(reg *obs.Registry, health func() obs.Health, fleet func() FleetView) http.Handler {
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
	serveJSON("/verdicts", func() any { return VerdictsOf(fleet()) })
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
