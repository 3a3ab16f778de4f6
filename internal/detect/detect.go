// Package detect closes the diagnosis loop the paper leaves to a human:
// it watches each source's per-item latency series online, finds
// fluctuations with a streaming change-point detector (an e-divisive
// energy statistic over a bounded window, in the style of the Hunter
// regression-hunting paper), and names the cause by diffing the offending
// items' per-function time breakdown against a rolling per-(function,
// core) baseline (the Automatic Cause Detection paper's ranked
// diff-against-baseline, applied to our trace data). The output is a
// stream of Verdicts — "function X on core Y gained Z µs", each handed
// to Config.OnVerdict as it is emitted, which is where a caller that wants
// the whole history collects it — plus a change-event lifecycle that
// feeds /healthz.
//
// Everything is deterministic: the detector has one caller at a time (the
// collector calls Update under the source's apply mutex, in the source's
// admission order, across reconnects too), the pair subsampling inside
// the energy statistic draws from a self-contained splitmix64 generator
// seeded by (seed, items seen, split point), and ties rank by
// (delta, function, core). Identical input series therefore yield
// byte-identical verdict streams — a property test, not a hope.
//
// Cost per Update is O(minSegment log minSegment / checkEvery) amortized
// on a steady series: the ring append is O(1), and every checkEvery items
// a cheap guard compares the medians of the window's oldest and newest
// minSegment items — only when they disagree by more than half the
// relative firing threshold (or an event is active) does the full
// O(splits × pairs) energy scan with its O(W log W) robust-median sorts
// run, all on preallocated scratch. Steady state allocates nothing
// (TestDetectZeroAllocSteadyState holds it at 0 allocs).
package detect

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hashx"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config parameterizes a Detector. The zero value of every field selects
// a sane default; a zero Config detects with the documented defaults but
// emits verdicts nowhere (set OnVerdict) and converts no cycles to ns
// (set FreqHz).
type Config struct {
	// Source tags every verdict with the originating stream's ID.
	Source string
	// FreqHz converts cycle deltas to nanoseconds in verdicts (0 leaves
	// DeltaNs zero; Score and ranking are frequency-independent).
	FreqHz uint64

	// Window is the bounded latency window the change-point scan runs
	// over, in items (default 128, at least 2×minSegment). Larger windows
	// see smaller shifts but detect later.
	Window int
	// Sigma is the firing threshold on the robust z-score of the median
	// shift (default 5): |median(post) − median(pre)| must exceed
	// Sigma × the MAD-sigma of the pre segment.
	Sigma float64
	// MinRelative is the relative floor (default 0.10): shifts smaller
	// than this fraction of the pre-change median never fire, however
	// quiet the series — a 1% regression on a 3σ-quiet workload is below
	// the noise floor of the per-item estimator itself.
	MinRelative float64

	// OnVerdict receives every emitted verdict, synchronously from Update.
	// It is the one way to collect the full verdict stream; State keeps
	// only the last few.
	OnVerdict func(Verdict)
	// Registry receives the fluct_detect_* self-telemetry (nil:
	// obs.Default()).
	Registry *obs.Registry
}

// The scan and ranker tuning. These are constants, not Config fields:
// every detector uses the same values, so a Snapshot need carry none of
// them for a Restore on another shard to continue the same stream.
const (
	// minSegment is the minimum items on each side of a candidate split:
	// no change-point can fire closer than this to either window edge,
	// which is also the detection floor after a rebase.
	minSegment = 16
	// checkEvery is the scan cadence in items, which amortizes the
	// O(window) scan to O(window/checkEvery) per item.
	checkEvery = 8
	// pairs is the per-split pair-subsampling budget of the energy
	// statistic. More pairs sharpen the estimate; the cost is linear.
	pairs = 48
	// confirm is the false-reset horizon in items: an event whose series
	// reverts to the pre-change level within confirm items of firing was
	// a transient, counted as a false reset (the detector had already
	// rebased onto the spike).
	confirm = 32
	// topK bounds ranked causes per change event.
	topK = 3
	// baselineRotate is the per-(function, core) baseline decay horizon
	// in items: the store keeps two generations and rotates every
	// baselineRotate evicted items, so baseline stats always cover between
	// one and two horizons of pre-window history.
	baselineRotate = 512
	// seed drives the pair subsampling: two detectors with the same
	// Config over the same series are identical.
	seed = 1
)

// Window identifies the anomalous tail a verdict blames: the post-split
// items of the window at fire time.
type Window struct {
	// FirstItem/LastItem are the IDs of the oldest and newest offending
	// items.
	FirstItem uint64 `json:"first_item"`
	LastItem  uint64 `json:"last_item"`
	// Items is the offending item count.
	Items int `json:"items"`
}

// Verdict is one ranked cause of one change event: function Function on
// core Core gained DeltaNs nanoseconds per item, with Score its robust
// z-score against the baseline. A change event emits up to topK verdicts,
// rank 0 strongest.
type Verdict struct {
	// Source is the originating stream.
	Source string `json:"source"`
	// Event is the per-source change-event ordinal (1-based) this verdict
	// belongs to; Rank orders causes within the event (0 = strongest).
	Event uint64 `json:"event"`
	Rank  int    `json:"rank"`
	// Item is the worst offending item (highest latency in the window).
	Item uint64 `json:"item"`
	// Function and Core name the blamed breakdown cell.
	Function string `json:"function"`
	Core     int32  `json:"core"`
	// DeltaNs is the per-item mean time the cell gained (negative: lost)
	// versus baseline, in nanoseconds on the source's clock.
	DeltaNs int64 `json:"delta_ns"`
	// Score is the shift in robust baseline sigmas — the ranking key.
	Score float64 `json:"score"`
	// Window is the anomalous tail the diff ran over.
	Window Window `json:"window"`
}

// String renders the verdict as the one-line diagnosis the paper derives
// by hand: which function, which core, how much.
func (v Verdict) String() string {
	gain := "gained"
	d := v.DeltaNs
	if d < 0 {
		gain, d = "lost", -d
	}
	return fmt.Sprintf("event %d rank %d: %s on core %d %s %.1fus/item (score %.1f, items %d..%d n=%d, worst %d)",
		v.Event, v.Rank, v.Function, v.Core, gain, float64(d)/1e3,
		v.Score, v.Window.FirstItem, v.Window.LastItem, v.Window.Items, v.Item)
}

// Stats is a point-in-time summary of a detector's life.
type Stats struct {
	// Items is how many items the detector has consumed.
	Items uint64
	// Changepoints counts fired change events; Verdicts the emitted
	// ranked causes.
	Changepoints uint64
	Verdicts     uint64
	// Resolved counts events whose series returned to the pre-change
	// level; FalseResets the subset that reverted within confirm items.
	Resolved    uint64
	FalseResets uint64
	// Active is the current count of unresolved change events — the
	// number /healthz degrades on.
	Active int
}

// event is one unresolved change: the level it departed from and the
// tolerance for recognizing a return to it.
type event struct {
	id        uint64
	firedAt   uint64 // d.items at fire time
	preMedian float64
	tol       float64 // |median − preMedian| < tol resolves the event
}

// funcObs is one item's time in one function (the item's core is the
// breakdown's core axis).
type funcObs struct {
	name   string
	cycles uint64
}

// Detector is the per-source streaming change-point detector plus cause
// ranker. It has one caller at a time by contract: Update, State, and
// Stats must never run concurrently (the collector calls them under the
// source's apply mutex). The zero value is not ready; use New.
type Detector struct {
	cfg  Config
	reg  *obs.Registry
	base *baseline

	// Bounded window ring, chronological order maintained via head/filled.
	lat   []float64 // per-item latency in cycles
	ids   []uint64
	cores []int32
	funcs [][]funcObs // per-slot estimable spans; slices reused across laps
	head  int         // next write position
	fill  int

	items      uint64 // total items consumed
	sinceCheck int

	// Preallocated scratch for the per-check sorts and the window copy.
	win  []float64
	sort []float64

	active []event
	st     Stats
	recent []Verdict // last maxRecent verdicts, oldest first

	metCP, metVerdicts, metFalse, metResolved *obs.Counter
	metActive                                 *obs.Gauge
	metLatency                                *obs.Histogram
}

// maxRecent bounds the verdict ring State exposes (and the wire snapshot
// ships).
const maxRecent = 32

// New validates cfg, applies defaults, and builds a detector.
func New(cfg Config) (*Detector, error) {
	if cfg.Window <= 0 {
		cfg.Window = 128
	}
	if cfg.Sigma <= 0 {
		cfg.Sigma = 5
	}
	if cfg.MinRelative <= 0 {
		cfg.MinRelative = 0.10
	}
	if cfg.Window < 2*minSegment {
		return nil, fmt.Errorf("detect: window %d < %d, two minimum segments", cfg.Window, 2*minSegment)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default()
	}
	d := &Detector{
		cfg:   cfg,
		reg:   reg,
		base:  newBaseline(),
		lat:   make([]float64, cfg.Window),
		ids:   make([]uint64, cfg.Window),
		cores: make([]int32, cfg.Window),
		funcs: make([][]funcObs, cfg.Window),
		win:   make([]float64, 0, cfg.Window),
		sort:  make([]float64, 0, cfg.Window),

		metCP:       reg.Counter("fluct_detect_changepoints_total"),
		metVerdicts: reg.Counter("fluct_detect_verdicts_total"),
		metFalse:    reg.Counter("fluct_detect_false_resets_total"),
		metResolved: reg.Counter("fluct_detect_resolved_total"),
		metActive:   reg.Gauge("fluct_detect_active_events"),
		metLatency:  reg.Histogram("fluct_detect_latency_items"),
	}
	return d, nil
}

// Update consumes one item in stream order and returns whether the
// verdict state changed (an event fired or resolved) — the collector's
// cue to republish its verdict snapshot. Must run on a single goroutine.
func (d *Detector) Update(it *core.Item) bool {
	// Evict the slot we are about to overwrite into the rolling baseline:
	// the baseline holds exactly the history older than the window, so a
	// shift inside the window can never contaminate its own reference.
	if d.fill == len(d.lat) {
		d.evict(d.head)
		d.fill--
	}
	slot := d.head
	d.lat[slot] = float64(it.ElapsedCycles())
	d.ids[slot] = it.ID
	d.cores[slot] = it.Core
	fs := d.funcs[slot][:0]
	for _, f := range it.Funcs {
		if f.Estimable() {
			fs = append(fs, funcObs{name: f.Fn.Name, cycles: f.Cycles()})
		}
	}
	d.funcs[slot] = fs
	d.head = (d.head + 1) % len(d.lat)
	d.fill++
	d.items++
	d.st.Items = d.items

	d.sinceCheck++
	if d.sinceCheck < checkEvery || d.fill < 2*minSegment {
		return false
	}
	d.sinceCheck = 0
	return d.check()
}

// evict folds one expiring slot into the baseline store.
func (d *Detector) evict(slot int) {
	co := d.cores[slot]
	for _, f := range d.funcs[slot] {
		d.base.record(f.name, co, f.cycles)
	}
	d.base.advance(co)
}

// slotAt returns the ring index of the i-th oldest item (0 ≤ i < fill).
func (d *Detector) slotAt(i int) int {
	return (d.head - d.fill + i + 2*len(d.lat)) % len(d.lat)
}

// window copies the current latencies in chronological order into d.win.
func (d *Detector) window() []float64 {
	d.win = d.win[:0]
	for i := 0; i < d.fill; i++ {
		d.win = append(d.win, d.lat[d.slotAt(i)])
	}
	return d.win
}

// median computes the median of xs using the preallocated sort scratch.
func (d *Detector) median(xs []float64) float64 {
	d.sort = append(d.sort[:0], xs...)
	sortFloats(d.sort)
	n := len(d.sort)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d.sort[n/2]
	}
	return (d.sort[n/2-1] + d.sort[n/2]) / 2
}

// madSigma computes the normal-consistent robust sigma of xs around med,
// reusing the sort scratch (stats.MADSigmaFactor × the median absolute
// deviation — the same estimator internal/stats documents for offline
// use, reimplemented allocation-free for the hot path).
func (d *Detector) madSigma(xs []float64, med float64) float64 {
	d.sort = d.sort[:0]
	for _, x := range xs {
		d.sort = append(d.sort, math.Abs(x-med))
	}
	sortFloats(d.sort)
	n := len(d.sort)
	if n == 0 {
		return 0
	}
	var mad float64
	if n%2 == 1 {
		mad = d.sort[n/2]
	} else {
		mad = (d.sort[n/2-1] + d.sort[n/2]) / 2
	}
	return stats.MADSigmaFactor * mad
}

// check runs one scan: resolve active events whose series returned to
// their pre-change level, then hunt for a new change point. Returns
// whether the verdict state changed.
func (d *Detector) check() bool {
	if len(d.active) == 0 && d.steady() {
		return false
	}
	w := d.window()
	n := len(w)
	if d.resolve(w) {
		// Rebase past the resolved excursion, keeping only the tail that
		// proved the return: the window still holds the anomalous level and
		// its downward edge, and hunting across that historic shape would
		// re-fire it as a spurious new event. (A scan runs only on a window
		// of at least 2×minSegment items: see Update.)
		d.dropPre(d.fill - minSegment)
		return true
	}
	changed := false

	// Candidate splits at a stride fine enough not to miss minSegment-wide
	// shifts; each scored by a pair-subsampled e-divisive energy statistic.
	const stride = minSegment / 4
	bestT, bestQ := -1, 0.0
	for t := minSegment; t <= n-minSegment; t += stride {
		q := d.energy(w, t)
		if q > bestQ {
			bestT, bestQ = t, q
		}
	}
	if bestT < 0 {
		return changed
	}

	pre, post := w[:bestT], w[bestT:]
	medPost := d.median(post)
	medPre := d.median(pre)
	sigmaPre := d.madSigma(pre, medPre)
	shift := medPost - medPre
	// Threshold: Sigma robust-sigmas AND MinRelative of the level. The
	// sigma floor (MinRelative × medPre / Sigma) keeps a perfectly flat
	// pre segment (MAD 0) from firing on noise-level shifts.
	floor := d.cfg.MinRelative * math.Abs(medPre) / d.cfg.Sigma
	if sigmaPre < floor {
		sigmaPre = floor
	}
	if sigmaPre <= 0 || math.Abs(shift) < d.cfg.Sigma*sigmaPre ||
		math.Abs(shift) < d.cfg.MinRelative*math.Abs(medPre) {
		return changed
	}

	// A "shift" back onto an active event's pre-change level is that
	// event ending, not a new anomaly.
	if d.resolveByLevel(medPost) {
		d.dropPre(bestT)
		return true
	}

	d.fire(bestT, medPre, medPost, sigmaPre)
	return true
}

// steady is the quiet-stream fast path. Firing requires the post-split
// median to sit at least MinRelative away from the pre-split median, and
// any split satisfying that leaves the window's newest minSegment items
// on a different level than its oldest minSegment items (every candidate
// split keeps at least minSegment items on each side, so the oldest
// segment is always pre-change and the newest always post-change). When
// the two edge medians agree to within half that threshold no split can
// clear the criterion, and the O(splits × pairs) energy scan is skipped —
// on a steady series the per-check cost collapses to two minSegment-sized
// sorts. The ½ margin absorbs the gap between the edge medians and the
// full segment medians the scan would compute; it is deliberately
// conservative so the guard never suppresses a fireable shift.
func (d *Detector) steady() bool {
	medFront := d.edgeMedian(0)
	medTail := d.edgeMedian(d.fill - minSegment)
	return math.Abs(medTail-medFront) < 0.5*d.cfg.MinRelative*math.Abs(medFront)
}

// edgeMedian computes the median of the minSegment window items starting
// at chronological ordinal start, reusing the sort scratch.
func (d *Detector) edgeMedian(start int) float64 {
	d.sort = d.sort[:0]
	for i := start; i < start+minSegment; i++ {
		d.sort = append(d.sort, d.lat[d.slotAt(i)])
	}
	sortFloats(d.sort)
	return (d.sort[minSegment/2-1] + d.sort[minSegment/2]) / 2 // minSegment is even
}

// energy scores a candidate split with the scaled e-divisive statistic
// Q(t) = t(n−t)/n × (2·E|X−Y| − E|X−X'| − E|Y−Y'|), each expectation
// estimated from pairs seeded draws. The generator is reseeded from
// (seed, items, t) so the scan is a pure function of the series.
func (d *Detector) energy(w []float64, t int) float64 {
	n := len(w)
	rng := hashx.SplitMix64{State: seed ^ d.items*0x9e3779b97f4a7c15 ^ uint64(t)<<40}
	var between, left, right float64
	for p := 0; p < pairs; p++ {
		between += math.Abs(w[rng.Intn(t)] - w[t+rng.Intn(n-t)])
		left += math.Abs(w[rng.Intn(t)] - w[rng.Intn(t)])
		right += math.Abs(w[t+rng.Intn(n-t)] - w[t+rng.Intn(n-t)])
	}
	e := (2*between - left - right) / float64(pairs)
	return e * float64(t) * float64(n-t) / float64(n)
}

// resolve ends active events whose recent level returned inside their
// tolerance band. Events resolve newest-context-first: a return to event
// k's pre-change level also moots every event fired after k.
func (d *Detector) resolve(w []float64) bool {
	if len(d.active) == 0 {
		return false
	}
	return d.resolveByLevel(d.median(w[len(w)-minSegment:]))
}

// resolveByLevel resolves the oldest active event whose pre-change level
// matches med (and everything fired after it). Reports whether anything
// resolved.
func (d *Detector) resolveByLevel(med float64) bool {
	for i := range d.active {
		if math.Abs(med-d.active[i].preMedian) < d.active[i].tol {
			for j := i; j < len(d.active); j++ {
				d.st.Resolved++
				d.metResolved.Inc()
				if d.items-d.active[j].firedAt <= uint64(confirm) {
					d.st.FalseResets++
					d.metFalse.Inc()
				}
			}
			d.metActive.Add(float64(-(len(d.active) - i)))
			d.active = d.active[:i]
			d.st.Active = len(d.active)
			return true
		}
	}
	return false
}

// dropPre flushes the oldest keep items out of the window into the
// baseline — the rebase after a fired (or resolved-by-return) change
// point, so the next scan hunts on the new level only.
func (d *Detector) dropPre(t int) {
	for i := 0; i < t; i++ {
		d.evict(d.slotAt(i))
	}
	d.fill -= t
}

// fire registers the change event, ranks causes, emits verdicts, and
// rebases the window onto the post-change level.
func (d *Detector) fire(t int, medPre, medPost, sigmaPre float64) {
	d.st.Changepoints++
	d.metCP.Inc()
	// Detection latency: items between the estimated change onset and now.
	d.metLatency.Record(uint64(d.fill - t))

	ev := event{
		id:        d.st.Changepoints,
		firedAt:   d.items,
		preMedian: medPre,
		// Resolution hysteresis: back within half the firing threshold.
		tol: math.Max(d.cfg.Sigma*sigmaPre, d.cfg.MinRelative*math.Abs(medPre)) / 2,
	}
	d.active = append(d.active, ev)
	d.st.Active = len(d.active)
	d.metActive.Add(1)

	verdicts := d.rank(ev.id, t, medPost >= medPre)
	for _, v := range verdicts {
		d.st.Verdicts++
		d.metVerdicts.Inc()
		d.recent = append(d.recent, v)
		if len(d.recent) > maxRecent {
			d.recent = d.recent[len(d.recent)-maxRecent:]
		}
		if d.cfg.OnVerdict != nil {
			d.cfg.OnVerdict(v)
		}
	}
	d.dropPre(t)
}

// State is the detector's current verdict snapshot — what the collector
// publishes to /verdicts and ships upstream.
type State struct {
	// Active is the unresolved change-event count.
	Active int
	// Recent holds the last verdicts (≤ maxRecent), oldest first.
	Recent []Verdict
}

// State returns a copy of the verdict snapshot. Same-goroutine contract
// as Update.
func (d *Detector) State() State {
	return State{Active: len(d.active), Recent: append([]Verdict(nil), d.recent...)}
}

// Stats returns the lifetime counters. Same-goroutine contract as Update.
func (d *Detector) Stats() Stats { return d.st }
