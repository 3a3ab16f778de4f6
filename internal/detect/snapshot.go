package detect

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Detector state transfer. A planned shard drain must move a source's
// detector to the new owner without breaking the verdict stream: the
// change-point window, the active-event lifecycle, and the rolling
// per-(function, core) baseline all have to continue exactly where they
// left off, or the ownership move itself looks like a fluctuation — the
// failure mode the Hunter paper warns about and ISSUE 10 pins with a
// byte-equivalence harness. Snapshot/Restore therefore carry *every*
// piece of mutable detector state, exactly: histograms bucket-for-bucket
// (obs.HistDump), the window in chronological order, events with their
// resolution tolerances, and the lifetime counters. The pair-subsampling
// RNG needs no state of its own — it reseeds from (seed, items, split)
// on every scan, so carrying items is enough.
//
// The contract: Restore requires a fresh detector built with the *same*
// Window, Sigma and MinRelative (the snapshot carries no thresholds;
// shards of one fleet share a detector template by construction, and the
// rest of the tuning — segment, cadence, pairs, seed, baseline horizon —
// is package constants), and must be called before the first Update. After
// Restore, feeding the detector the same items the donor would have seen
// yields the identical verdict stream — the property
// TestSnapshotStreamEquivalence pins at arbitrary split points.

// Snapshot is a complete, JSON-serializable copy of a detector's mutable
// state. Produce with Detector.Snapshot, install with Detector.Restore.
type Snapshot struct {
	// Items is the total items consumed; SinceCheck the scan-cadence
	// phase within the current checkEvery stride.
	Items      uint64 `json:"items"`
	SinceCheck int    `json:"since_check"`
	// Window holds the in-window items, oldest first.
	Window []SnapshotItem `json:"window,omitempty"`
	// Active holds the unresolved change events, oldest first.
	Active []SnapshotEvent `json:"active,omitempty"`
	// Stats mirrors the lifetime counters at snapshot time.
	Stats Stats `json:"stats"`
	// Recent holds the last ≤32 verdicts, oldest first — the /verdicts
	// snapshot the new owner keeps serving.
	Recent []Verdict `json:"recent,omitempty"`
	// Baseline is the rolling per-(function, core) reference store.
	Baseline BaselineSnapshot `json:"baseline"`
}

// SnapshotItem is one window slot: the item's latency, identity, and
// estimable per-function breakdown.
type SnapshotItem struct {
	LatCycles float64        `json:"lat"`
	ID        uint64         `json:"id"`
	Core      int32          `json:"core"`
	Funcs     []SnapshotFunc `json:"funcs,omitempty"`
}

// SnapshotFunc is one function's share of a window item.
type SnapshotFunc struct {
	Name   string `json:"name"`
	Cycles uint64 `json:"cycles"`
}

// SnapshotEvent is one unresolved change event.
type SnapshotEvent struct {
	ID        uint64  `json:"id"`
	FiredAt   uint64  `json:"fired_at"`
	PreMedian float64 `json:"pre_median"`
	Tol       float64 `json:"tol"`
}

// BaselineSnapshot is the two-generation baseline store: every occupied
// cell's histogram (bucket-exact) plus the per-core item denominators
// and the rotation phase. Cells and cores are sorted so the snapshot is
// deterministic — two snapshots of the same detector are deeply equal.
type BaselineSnapshot struct {
	SinceRotate int            `json:"since_rotate"`
	Cur         []BaselineCell `json:"cur,omitempty"`
	Prev        []BaselineCell `json:"prev,omitempty"`
	CurItems    []CoreItems    `json:"cur_items,omitempty"`
	PrevItems   []CoreItems    `json:"prev_items,omitempty"`
}

// BaselineCell is one (function, core) cell of a baseline generation.
type BaselineCell struct {
	Function string       `json:"function"`
	Core     int32        `json:"core"`
	Hist     obs.HistDump `json:"hist"`
}

// CoreItems is one core's evicted-item count within a generation.
type CoreItems struct {
	Core  int32  `json:"core"`
	Items uint64 `json:"items"`
}

// Snapshot exports the detector's complete mutable state. Same-goroutine
// contract as Update.
func (d *Detector) Snapshot() Snapshot {
	s := Snapshot{
		Items:      d.items,
		SinceCheck: d.sinceCheck,
		Stats:      d.st,
	}
	for i := 0; i < d.fill; i++ {
		slot := d.slotAt(i)
		si := SnapshotItem{LatCycles: d.lat[slot], ID: d.ids[slot], Core: d.cores[slot]}
		for _, f := range d.funcs[slot] {
			si.Funcs = append(si.Funcs, SnapshotFunc{Name: f.name, Cycles: f.cycles})
		}
		s.Window = append(s.Window, si)
	}
	for _, ev := range d.active {
		s.Active = append(s.Active, SnapshotEvent{
			ID: ev.id, FiredAt: ev.firedAt, PreMedian: ev.preMedian, Tol: ev.tol,
		})
	}
	s.Recent = append(s.Recent, d.recent...)
	s.Baseline = d.base.snapshot()
	return s
}

// snapshot exports the baseline store with deterministic cell order.
func (b *baseline) snapshot() BaselineSnapshot {
	s := BaselineSnapshot{SinceRotate: b.sinceRotate}
	s.Cur = dumpCells(b.cur)
	s.Prev = dumpCells(b.prev)
	s.CurItems = dumpCoreItems(b.curItems)
	s.PrevItems = dumpCoreItems(b.prevItems)
	return s
}

func dumpCells(gen map[cellKey]*obs.Histogram) []BaselineCell {
	if len(gen) == 0 {
		return nil // nil, not empty: snapshots must survive a JSON round trip deeply equal
	}
	cells := make([]BaselineCell, 0, len(gen))
	for k, h := range gen {
		cells = append(cells, BaselineCell{Function: k.name, Core: k.core, Hist: h.Dump()})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Function != cells[j].Function {
			return cells[i].Function < cells[j].Function
		}
		return cells[i].Core < cells[j].Core
	})
	return cells
}

func dumpCoreItems(m map[int32]uint64) []CoreItems {
	if len(m) == 0 {
		return nil
	}
	out := make([]CoreItems, 0, len(m))
	for co, n := range m {
		out = append(out, CoreItems{Core: co, Items: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Core < out[j].Core })
	return out
}

// Restore installs a snapshot into a freshly constructed detector. It
// validates the snapshot against the detector's config (window capacity,
// counter consistency) and refuses to overwrite a detector that has
// already consumed items — state transfer replaces history, it does not
// merge with it.
func (d *Detector) Restore(s Snapshot) error {
	if d.items != 0 || d.fill != 0 {
		return fmt.Errorf("detect: Restore on a detector that has consumed %d items", d.items)
	}
	if len(s.Window) > len(d.lat) {
		return fmt.Errorf("detect: snapshot window %d exceeds configured window %d", len(s.Window), len(d.lat))
	}
	if s.SinceCheck < 0 || s.SinceCheck >= checkEvery {
		return fmt.Errorf("detect: snapshot since_check %d outside [0,%d)", s.SinceCheck, checkEvery)
	}
	if uint64(len(s.Window)) > s.Items {
		return fmt.Errorf("detect: snapshot window %d larger than items consumed %d", len(s.Window), s.Items)
	}
	if s.Stats.Items != s.Items {
		return fmt.Errorf("detect: snapshot stats items %d != items %d", s.Stats.Items, s.Items)
	}
	if s.Stats.Active != len(s.Active) {
		return fmt.Errorf("detect: snapshot stats active %d != %d active events", s.Stats.Active, len(s.Active))
	}
	if len(s.Recent) > maxRecent {
		return fmt.Errorf("detect: snapshot carries %d recent verdicts (max %d)", len(s.Recent), maxRecent)
	}
	base := newBaseline()
	if s.Baseline.SinceRotate < 0 || s.Baseline.SinceRotate >= baselineRotate {
		return fmt.Errorf("detect: snapshot since_rotate %d outside [0,%d)", s.Baseline.SinceRotate, baselineRotate)
	}
	base.sinceRotate = s.Baseline.SinceRotate
	if err := loadCells(base.cur, s.Baseline.Cur); err != nil {
		return fmt.Errorf("detect: snapshot cur generation: %w", err)
	}
	if err := loadCells(base.prev, s.Baseline.Prev); err != nil {
		return fmt.Errorf("detect: snapshot prev generation: %w", err)
	}
	for _, ci := range s.Baseline.CurItems {
		base.curItems[ci.Core] = ci.Items
	}
	for _, ci := range s.Baseline.PrevItems {
		base.prevItems[ci.Core] = ci.Items
	}

	// All validation passed — install. The window is written back in
	// chronological order starting at slot 0, so slotAt reproduces the
	// donor's ordering.
	d.base = base
	for i, si := range s.Window {
		d.lat[i] = si.LatCycles
		d.ids[i] = si.ID
		d.cores[i] = si.Core
		fs := d.funcs[i][:0]
		for _, f := range si.Funcs {
			fs = append(fs, funcObs{name: f.Name, cycles: f.Cycles})
		}
		d.funcs[i] = fs
	}
	d.fill = len(s.Window)
	d.head = d.fill % len(d.lat)
	d.items = s.Items
	d.sinceCheck = s.SinceCheck
	d.st = s.Stats
	d.active = d.active[:0]
	for _, ev := range s.Active {
		d.active = append(d.active, event{
			id: ev.ID, firedAt: ev.FiredAt, preMedian: ev.PreMedian, tol: ev.Tol,
		})
	}
	d.st.Active = len(d.active)
	d.recent = append(d.recent[:0], s.Recent...)
	d.metActive.Add(float64(len(d.active)))
	return nil
}

func loadCells(gen map[cellKey]*obs.Histogram, cells []BaselineCell) error {
	for i, c := range cells {
		k := cellKey{name: c.Function, core: c.Core}
		if _, dup := gen[k]; dup {
			return fmt.Errorf("cell %d (%s, core %d) duplicated", i, c.Function, c.Core)
		}
		h := obs.NewHistogram()
		if err := h.Load(c.Hist); err != nil {
			return fmt.Errorf("cell %d (%s, core %d): %w", i, c.Function, c.Core, err)
		}
		gen[k] = h
	}
	return nil
}
