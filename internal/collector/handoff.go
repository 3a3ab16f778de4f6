// Planned-drain handoff: the collector-side state machine of the protocol
// defined in internal/wire/handoff.go.
//
// Draining side (driven by agg.Drainer): FreezeSource quiesces a source at
// a set boundary and freezes it (new frames refused, connections answered
// with TRedirect); ExportSource serializes the frozen source's complete
// transferable state; MarkHandedOff records durably (via the checkpoint)
// that the state has been staged for its new owner; RedirectSource pushes
// the redirect at the source's live connections instead of waiting for the
// shippers to notice; RemoveSource drops the row once the handoff is
// acknowledged and the collector is about to leave.
//
// Receiving side: handoff peer streams ("!handoff!<shard>") carry
// THandoffBegin/THandoffSource frames through the ordinary sequenced
// ingest path, so imports are deduplicated by the peer stream's (epoch,
// seq) watermark like any other frame, checkpointed before they are
// acknowledged, and replayed from the peer's spool if this collector dies
// mid-import. applyHandoffSource decides per source between a fresh
// install, an additive merge (the shipper's redirected stream won the race
// against its own state transfer), and a recognized duplicate.
package collector

import (
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/durable"
	"repro/internal/health"
	"repro/internal/wire"
)

// isHandoffPeer reports whether a wire source ID names a shard→shard
// handoff stream rather than a real traced source.
func isHandoffPeer(id string) bool {
	return strings.HasPrefix(id, wire.HandoffPeerPrefix)
}

// importProgress tracks one draining peer's announced handoff.
type importProgress struct {
	shard  string // draining shard's membership identity (from HandoffBegin)
	expect int    // sources the peer declared it would ship here
	done   int    // imports applied (installed + merged + duplicate)
}

// writeRedirect sends a TRedirect carrying the post-departure membership
// table. Best-effort: the shipper that never sees it falls back to its
// dial-retry loop.
func (c *Collector) writeRedirect(conn net.Conn, members []string) {
	payload, err := wire.AppendRedirect(nil, wire.Redirect{Members: members})
	if err != nil {
		return
	}
	if wire.WriteFrame(conn, wire.Frame{Type: wire.TRedirect, Payload: payload}) == nil {
		c.metRedirects.Inc()
	}
}

// redirectAndClose answers a frozen source's connection with the redirect
// hint; the caller then refuses it, and the receive loop hangs up.
func (c *Collector) redirectAndClose(src *Source, conn net.Conn) {
	src.mu.Lock()
	members := append([]string(nil), src.redirect...)
	src.mu.Unlock()
	c.writeRedirect(conn, members)
}

// applyHandoffBegin records a draining peer's announcement. Runs under the
// peer stream's apply mutex like every applied frame.
func (c *Collector) applyHandoffBegin(peer *Source, payload []byte) error {
	hb, err := wire.DecodeHandoffBegin(payload)
	if err != nil {
		return err
	}
	if !peer.internal {
		return fmt.Errorf("collector: handoff begin on non-handoff stream %q", peer.ID)
	}
	c.mu.Lock()
	// A re-drain after a crash re-announces; the fresh progress row is the
	// correct one (already-imported sources come back as duplicates).
	c.imports[peer.ID] = &importProgress{shard: hb.Shard, expect: hb.Sources}
	c.mu.Unlock()
	return nil
}

// applyHandoffSource imports one moved source's state and returns the
// disposition its peer connection reports in a THandoffAck. Runs under the
// peer stream's apply mutex; it takes only the target source's mutex
// (never two source mutexes at once), so it cannot deadlock against the
// target's own ingest.
func (c *Collector) applyHandoffSource(peer *Source, payload []byte) (wire.HandoffAck, error) {
	hs, err := wire.DecodeHandoffSource(payload)
	if err != nil {
		c.metImportErrs.Inc()
		return wire.HandoffAck{}, err
	}
	if !peer.internal {
		c.metImportErrs.Inc()
		return wire.HandoffAck{}, fmt.Errorf("collector: handoff source on non-handoff stream %q", peer.ID)
	}
	if isHandoffPeer(hs.Source) {
		c.metImportErrs.Inc()
		return wire.HandoffAck{}, fmt.Errorf("collector: refusing handoff of internal stream %q", hs.Source)
	}
	disp := c.importSource(hs)
	c.mu.Lock()
	if p := c.imports[peer.ID]; p != nil {
		p.done++
	}
	c.mu.Unlock()
	if disp == wire.HandoffDuplicate {
		c.metImportDups.Inc()
	} else {
		c.metImports.Inc()
	}
	return wire.HandoffAck{Source: hs.Source, Disposition: disp}, nil
}

// importSource applies one decoded handoff under the target source's
// mutex and returns the disposition.
func (c *Collector) importSource(hs *wire.HandoffSource) wire.HandoffDisposition {
	tgt := c.source(hs.Source)
	tgt.mu.Lock()
	defer tgt.mu.Unlock()

	if tgt.imported && tgt.importedEpoch == hs.Epoch && tgt.importedSeq == hs.LastAcked {
		// This exact handoff already landed (spool replay, or a re-drain
		// after the drainer crashed between staging and acknowledgement).
		return wire.HandoffDuplicate
	}
	// Fresh install is safe only when nothing local would be overwritten:
	// the row was just created by c.source above (or restored empty), or it
	// is a frozen leftover of our own past drain — state that has already
	// moved away and is now moving back.
	fresh := tgt.frozen ||
		(!tgt.everConnected && tgt.sets == 0 && tgt.abortedSets == 0 &&
			tgt.wm == durable.Watermark{})
	tgt.imported = true
	tgt.importedEpoch = hs.Epoch
	tgt.importedSeq = hs.LastAcked

	if !fresh {
		// The source's shipper was redirected here before its state arrived
		// and has already resynced a live stream. Local watermarks, items,
		// and detector state describe the newer truth; only the cumulative
		// counters must absorb the pre-move history. The handoff covers
		// sequence numbers ≤ its watermark, the live stream's sets cover
		// newer ones, so the sums count nothing twice.
		tgt.sets += hs.Sets
		tgt.abortedSets += hs.AbortedSets
		tgt.frames += hs.Frames
		tgt.crcErrors += hs.CRCErrors
		tgt.disconnects += hs.Disconnects
		tgt.lostMarkers += hs.LostMarkers
		tgt.lostSamples += hs.LostSamples
		tgt.confSum += hs.ConfSum
		tgt.confN += hs.ConfN
		return wire.HandoffMerged
	}

	if err := c.setStateLocked(tgt, hs.SourceState, nil); err != nil {
		c.metImportErrs.Inc()
	}
	tgt.verdicts = append([]detect.Verdict(nil), hs.Verdicts...)
	tgt.activeVerdicts = hs.ActiveVerdicts
	tgt.det = nil
	if c.cfg.Detect != nil && hs.Detector != nil && hs.FreqHz > 0 {
		det, err := c.newDetector(hs.Source, hs.FreqHz)
		if err == nil {
			err = det.Restore(*hs.Detector)
		}
		if err == nil {
			// The restored detector resumes the verdict stream exactly
			// where the old owner left it — same window, same baseline,
			// same active events.
			tgt.det = det
		} else {
			// Detection degrades to a fresh detector on the next symtab;
			// everything else about the source still moved intact.
			c.metImportErrs.Inc()
		}
	}
	tgt.frozen = false
	tgt.handedOff = false
	tgt.redirect = nil
	return wire.HandoffInstalled
}

// DrainableSources returns the IDs of every real (non-handoff-peer)
// source this collector owns, sorted. This is the set a planned drain
// must move.
func (c *Collector) DrainableSources() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]string, 0, len(c.sources))
	for id, s := range c.sources {
		if s.internal {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// BeginDrain marks this collector as draining (surfaced on Status) and
// records how many sources the drain will move. A draining collector
// never returns to normal service; the flag stays set.
func (c *Collector) BeginDrain(total int) {
	c.mu.Lock()
	c.draining = true
	c.drainTotal = total
	c.drainDone = 0
	c.mu.Unlock()
}

// NoteDrained advances the drain progress surfaced on Status.
func (c *Collector) NoteDrained() {
	c.mu.Lock()
	c.drainDone++
	c.mu.Unlock()
}

// FreezeSource quiesces id at a set boundary and freezes it: once frozen,
// every frame for the source is refused and every connection is answered
// with TRedirect(members). The quiesce waits for the in-flight set to
// close, polling up to setWait; a source that will not reach a boundary in
// time has its set aborted (the degraded path — the abort is visible in
// the counters, but the drain never wedges behind one slow shipper). Each
// poll holds the apply mutex, so the freeze (and a forced abort) lands
// between two applies. Returns whether the quiesce had to abort.
func (c *Collector) FreezeSource(id string, members []string, setWait time.Duration) (aborted bool, err error) {
	c.mu.Lock()
	src := c.sources[id]
	c.mu.Unlock()
	if src == nil {
		return false, fmt.Errorf("collector: freeze of unknown source %q", id)
	}
	deadline := time.Now().Add(setWait)
	for {
		src.applyMu.Lock()
		open := src.integ != nil
		if !open || !time.Now().Before(deadline) {
			src.mu.Lock()
			// A re-drain after a crash finds the source already frozen (its
			// set closed before the first freeze) and just refreshes the hint.
			src.frozen = true
			src.redirect = append([]string(nil), members...)
			src.mu.Unlock()
			if open {
				// Force a boundary: abort the in-flight set.
				c.finishSet(src, wire.SetEnd{}, true, 0, 0)
			}
			src.applyMu.Unlock()
			return open, nil
		}
		src.applyMu.Unlock()
		time.Sleep(time.Millisecond)
	}
}

// ExportSource serializes a frozen source's complete transferable state.
// The watermark is the applied sequence (== acknowledged at a quiesced
// boundary, and the safer of the two when a checkpoint failure left acks
// lagging): the new owner resumes dedup exactly there, so the shipper's
// replay of anything at or below it is a recognized duplicate.
func (c *Collector) ExportSource(id string) (*wire.HandoffSource, error) {
	c.mu.Lock()
	src := c.sources[id]
	c.mu.Unlock()
	if src == nil {
		return nil, fmt.Errorf("collector: export of unknown source %q", id)
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	if !src.frozen {
		return nil, fmt.Errorf("collector: export of unfrozen source %q", id)
	}
	// The handoff carries the items as JSON (wire.HandoffSource).
	st := src.stateLocked()
	st.Items = append([]core.Item(nil), src.items...)
	for i := range st.Items {
		st.Items[i].Funcs = append([]core.FuncSpan(nil), st.Items[i].Funcs...)
	}
	hs := &wire.HandoffSource{
		Source:         src.ID,
		SourceState:    st,
		Verdicts:       append([]detect.Verdict(nil), src.verdicts...),
		ActiveVerdicts: src.activeVerdicts,
	}
	hs.LastAcked = src.wm.Applied
	if src.det != nil {
		// The source is frozen, so no apply touches this detector again;
		// the apply mutex FreezeSource took makes its writes visible here.
		snap := src.det.Snapshot()
		hs.Detector = &snap
	}
	return hs, nil
}

// MarkHandedOff records (durably, once the caller checkpoints) that the
// source's state has been staged for its new owner: a restart must come
// back frozen rather than accept frames the new owner also accepts.
func (c *Collector) MarkHandedOff(id string) error {
	c.mu.Lock()
	src := c.sources[id]
	c.mu.Unlock()
	if src == nil {
		return fmt.Errorf("collector: unknown source %q", id)
	}
	src.mu.Lock()
	if !src.frozen {
		src.mu.Unlock()
		return fmt.Errorf("collector: source %q not frozen", id)
	}
	src.handedOff = true
	src.mu.Unlock()
	return nil
}

// RedirectSource pushes the redirect hint at the source's live
// connections and severs them, so shippers re-hash and reconnect
// immediately instead of waiting out a dial timeout against a leaving
// shard. The severed connections do not count as disconnects — this is a
// deliberate handoff, not link damage (sourceStream.End checks frozen for
// exactly this reason).
func (c *Collector) RedirectSource(id string) {
	c.mu.Lock()
	src := c.sources[id]
	c.mu.Unlock()
	if src == nil {
		return
	}
	src.mu.Lock()
	members := append([]string(nil), src.redirect...)
	conns := make([]net.Conn, 0, len(src.conns))
	for conn := range src.conns {
		conns = append(conns, conn)
	}
	src.mu.Unlock()
	for _, conn := range conns {
		c.writeRedirect(conn, members)
		conn.Close()
	}
}

// RemoveSource drops a handed-off source's row. Only valid once the
// handoff is staged and only safe when the collector is about to stop
// serving (the drain's last step): a shipper that somehow redials
// afterwards would otherwise recreate an empty row and fork the stream.
func (c *Collector) RemoveSource(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	src := c.sources[id]
	if src == nil {
		return fmt.Errorf("collector: unknown source %q", id)
	}
	src.mu.Lock()
	ok := src.handedOff
	src.mu.Unlock()
	if !ok {
		return fmt.Errorf("collector: source %q not handed off", id)
	}
	delete(c.sources, id)
	c.metSources.SetInt(len(c.sources))
	return nil
}

// Depart marks the drain complete: from now on every handshake for a
// non-peer source — known or not — is answered with TRedirect(members).
// A removed source's shipper that slept through the drain and redials
// later must find a signpost here, never a fresh row.
func (c *Collector) Depart(members []string) {
	c.mu.Lock()
	c.departed = true
	c.departMembers = append([]string(nil), members...)
	c.mu.Unlock()
}

// Status composes the collector's health conditions: the fleet's
// transport/detect conditions, plus the drain/import lifecycle. A
// draining collector votes not-OK (it must leave the load balancer);
// in-flight imports are informational and stay OK.
func (c *Collector) Status() health.Status {
	st := FleetStatus(c.Fleet())
	c.mu.Lock()
	draining, total, done := c.draining, c.drainTotal, c.drainDone
	departed := c.departed
	var inflight, imported int
	var fromShards []string
	for _, p := range c.imports {
		imported += p.done
		if p.done < p.expect {
			inflight += p.expect - p.done
			fromShards = append(fromShards, p.shard)
		}
	}
	c.mu.Unlock()
	if departed {
		st.Add(health.Cond("draining", false, "departed: all %d sources handed off, redirecting", total).
			WithField("drain_done", float64(done)).
			WithField("drain_total", float64(total)))
	} else if draining {
		st.Add(health.Cond("draining", false, "handing off %d/%d sources", done, total).
			WithField("drain_done", float64(done)).
			WithField("drain_total", float64(total)))
	}
	if inflight > 0 {
		sort.Strings(fromShards)
		st.Add(health.Cond("importing", true, "%d source imports in flight from %s",
			inflight, strings.Join(fromShards, ",")).
			WithField("imports_inflight", float64(inflight)).
			WithField("imports_done", float64(imported)))
	} else if imported > 0 {
		st.Add(health.Cond("importing", true, "%d sources imported", imported).
			WithField("imports_done", float64(imported)))
	}
	return st
}
