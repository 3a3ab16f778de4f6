package core

import (
	"repro/internal/symtab"
	"repro/internal/trace"
)

// pairing is one core's integration state — the open item and the ID last
// closed cleanly — and the rules of the paper's integration step (§III-D
// step 2) over it: a Begin opens an item, its End closes it, and a sample
// lands in the item open on its core. Degraded marker streams (lost or
// doubled log writes) are repaired where the intent is unambiguous and
// surfaced in the diagnostics and per-item confidence everywhere else; no
// marker sequence is fatal.
//
// Both integrators drive it one record at a time: StreamIntegrator in
// arrival order, integrateCore over a core's sorted shard. The caller owns
// item storage (itemSink) and the order of same-cycle records; the rules
// live here only.
type pairing struct {
	cur        *Item // open item, nil when none
	lastClosed uint64
	haveClosed bool
}

// itemSink is the item storage of a pairing's caller.
type itemSink interface {
	// take returns a zeroed Item (Funcs may keep capacity) for a Begin.
	take() *Item
	// done receives an item closed by its End or by a reopen; the pairing
	// holds no reference to it any more.
	done(*Item)
}

// marker applies one marker record.
func (p *pairing) marker(m trace.Marker, d *Diagnostics, sink itemSink) {
	switch m.Kind {
	case trace.ItemBegin:
		if p.cur != nil && p.cur.ID == m.Item {
			// A Begin for the item already open is a doubled log write;
			// honoring it would fake a reopen. Repair: drop it.
			d.RepairedMarkers++
			return
		}
		if p.cur != nil {
			// Forced reopen: close the dangling item here so its samples
			// stay attributable up to the switch point. Its true End was
			// lost, so it carries the reopened-confidence penalty.
			p.cur.Confidence *= confReopened
			p.close(m.TSC, sink)
			d.ReopenedItems++
		}
		it := sink.take()
		it.ID, it.Core, it.BeginTSC, it.EndTSC, it.Confidence = m.Item, m.Core, m.TSC, m.TSC, 1
		p.cur = it
	case trace.ItemEnd:
		if p.cur != nil && p.cur.ID == m.Item {
			p.lastClosed, p.haveClosed = m.Item, true
			p.close(m.TSC, sink)
			return
		}
		if p.cur == nil && p.haveClosed && p.lastClosed == m.Item {
			// An End for the item just closed is the doubled-write twin of
			// the Begin repair above, not an orphan.
			d.RepairedMarkers++
			return
		}
		d.OrphanEndMarkers++
	}
}

func (p *pairing) close(tsc uint64, sink itemSink) {
	it := p.cur
	p.cur = nil
	it.EndTSC = tsc
	sink.done(it)
}

// sample attributes one sample to the open item and resolves its IP. A
// sample with no item open, or on the open item's Begin cycle when
// boundaries are excluded, is unattributed.
func (p *pairing) sample(tsc, ip uint64, res *symtab.Resolver, excludeBounds bool, d *Diagnostics) {
	it := p.cur
	if it == nil || excludeBounds && tsc == it.BeginTSC {
		d.UnattributedSamples++
		return
	}
	it.SampleCount++
	fn := res.Resolve(ip)
	if fn == nil {
		it.UnresolvedSamples++
		d.UnresolvedSamples++
		return
	}
	attachSample(it, fn, tsc)
}

// unclosed ends the marker stream: an item still open never saw its End.
// It is counted and handed back detached; nil when none is open.
func (p *pairing) unclosed(d *Diagnostics) *Item {
	it := p.cur
	if it != nil {
		p.cur = nil
		d.UnclosedItems++
	}
	return it
}
