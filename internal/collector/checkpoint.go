package collector

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/symtab"
	"repro/internal/wire"
)

// The checkpoint is the collector's restart story: everything a daemon
// bounce must not forget, serialized per source — the acked-delivery
// watermark (so dedup survives and acked sets are never re-integrated),
// the last completed set's results (so /fleet and /healthz resume
// populated), and the cumulative accounting. Mid-set integrator state is
// deliberately absent: acks only ever land on SetEnd frames, so after a
// restart the shipper replays any partial set from its spool in full and
// the integrator rebuilds from the replayed TSymtab. The file is replaced
// atomically (durable.WriteFile).

// checkpointVersion guards the file layout. Version 1 rows carry the
// items as JSON; they are still read.
const checkpointVersion = 2

type checkpointFile struct {
	Version int                `json:"version"`
	Sources []checkpointSource `json:"sources"`
}

// checkpointSource is one source's row: the shared wire.SourceState (the
// same struct a handoff carries) plus what only matters to the collector
// that wrote it.
type checkpointSource struct {
	ID string `json:"id"`
	wire.SourceState
	lifecycle
}

// lifecycle is a source's drain/handoff state (see handoff.go), held by
// the source and written into its checkpoint row as it is. HandedOff
// restores as frozen: once a source's state has been staged for a new
// owner, a restarted collector must keep refusing its frames — the staged
// handoff replays from the drain shipper's spool, and accepting frames
// here again would fork the stream. Internal marks a shard-to-shard
// handoff peer stream (wire.HandoffPeerPrefix): kept out of the fleet view
// and the uplink taps, kept IN the checkpoint — the peer stream's dedup
// watermark is what recognizes a replayed handoff. A frozen source answers
// connections with TRedirect(Redirect). The Imported trio is the receiving
// side's handoff dedup marker.
type lifecycle struct {
	Internal      bool     `json:"internal,omitempty"`
	HandedOff     bool     `json:"handed_off,omitempty"`
	Redirect      []string `json:"redirect,omitempty"`
	Imported      bool     `json:"imported,omitempty"`
	ImportedEpoch uint64   `json:"imported_epoch,omitempty"`
	ImportedSeq   uint64   `json:"imported_seq,omitempty"`
}

// stateLocked copies the source's persisted row out: the row as held, its
// watermark from wm and its last set's items as the summary payload (none
// when they did not encode: summaryErr). The clock the row records is the
// one those items were integrated against, never an open set's; the
// watermark is the settled one — the sequence number this very accounting
// reflects — whether or not it has been acknowledged yet. Caller holds
// s.applyMu and s.mu.
func (s *Source) stateLocked() wire.SourceState {
	s.payloadLocked()
	st := s.row
	st.Epoch, st.LastAcked = s.wm.Epoch, s.wm.Settled
	return st
}

// payloadLocked returns the payload finishSet encoded into sumBuf (nil
// when there is none), copied out into row.Summary on the first read
// after the set: a copy the next set's encode cannot touch and nothing
// appends into, so a reader may keep it after it dropped the source's
// locks. Caller holds s.applyMu (finishSet writes sumBuf under it) and
// s.mu.
func (s *Source) payloadLocked() []byte {
	if s.sumUnread {
		s.row.Summary, s.sumUnread = bytes.Clone(s.sumBuf), false
	}
	return s.row.Summary
}

// loadRow readies a persisted row — a checkpoint row or a handoff — for
// setStateLocked and returns its item count, touching no source.
// Version-1 JSON items first become the payload a version-2 row carries
// (upgradeItems), so every row installs as its payload: it must pass
// wire.CheckFleetSummary, which accepts exactly what the fleet view's
// decode does, and name the row's own source and clock.
func loadRow(id string, st *wire.SourceState) (int, error) {
	if len(st.Items) > 0 {
		if st.Summary != nil {
			return 0, fmt.Errorf("row carries both JSON items and a summary")
		}
		var err error
		if st.Summary, err = upgradeItems(id, st.FreqHz, st.Items); err != nil {
			return 0, fmt.Errorf("items: %w", err)
		}
		st.Items = nil
	}
	if st.Summary == nil {
		return 0, nil
	}
	fs, n, err := wire.CheckFleetSummary(st.Summary)
	switch {
	case err != nil:
	case fs.Source != id:
		err = fmt.Errorf("payload names source %q", fs.Source)
	case fs.FreqHz != st.FreqHz:
		err = fmt.Errorf("payload clock %d Hz, row clock %d Hz", fs.FreqHz, st.FreqHz)
	}
	if err != nil {
		return 0, fmt.Errorf("summary: %w", err)
	}
	return n, nil
}

// upgradeItems encodes a version-1 row's JSON items as its payload. The
// JSON decoder allocates a function per span, and the payload's
// dictionary keys on the pointer, so spans of equal functions are first
// made to share one.
func upgradeItems(id string, freq uint64, items []core.Item) ([]byte, error) {
	own := map[symtab.Fn]*symtab.Fn{}
	for i := range items {
		for j := range items[i].Funcs {
			sp := &items[i].Funcs[j]
			if sp.Fn == nil {
				continue
			}
			if fn, ok := own[*sp.Fn]; ok {
				sp.Fn = fn
			} else {
				own[*sp.Fn] = sp.Fn
			}
		}
	}
	return wire.AppendFleetSummary(nil, wire.FleetSummary{Source: id, FreqHz: freq, Items: items})
}

// setStateLocked installs a row loadRow readied, with its item count: the
// inverse of stateLocked, and the one place a restored or imported row is
// installed. Mid-set progress is never persisted, so all three watermarks
// resume at the recorded set boundary and the shipper replays any partial
// set in full. Caller holds s.mu (or owns s outright).
func (s *Source) setStateLocked(st wire.SourceState, items int) {
	s.row = st
	s.wm = durable.Restored(st.Epoch, st.LastAcked)
	s.itemCount = items
	s.summaryErr, s.sumUnread = nil, false
}

// Checkpoint writes the collector's durable state to cfg.CheckpointPath
// atomically. It is called before every ack (durable.Receiver), on daemon
// shutdown, and on the daemon's periodic timer. Every row records its
// source's settled watermark; committing that watermark to memory (and so
// advertising it) is the acking connection's job, after this returns nil.
// A source whose last set's items did not encode fails the checkpoint:
// no row is ever written without its items.
func (c *Collector) Checkpoint() error {
	if c.cfg.CheckpointPath == "" {
		return fmt.Errorf("collector: no checkpoint path configured")
	}
	// Serialize writers end to end: the snapshot and the rename must be one
	// atomic unit, or a writer holding an older snapshot could rename it
	// over a newer checkpoint and un-persist state another connection
	// already acked against.
	c.ckptMu.Lock()
	defer c.ckptMu.Unlock()
	srcs, rows := c.appendSources(c.ckptSrcs[:0]), c.ckptRows[:0]
	defer func() {
		// Keep the slices, not what they hold: a source removed or a
		// payload replaced since must not stay alive here.
		clear(srcs)
		clear(rows)
		c.ckptSrcs, c.ckptRows = srcs[:0], rows[:0]
	}()
	for _, s := range srcs {
		// The apply mutex waits out an apply in flight: a set settles before
		// its OnSummary tap runs, and a restore from a snapshot between the
		// two would acknowledge the replayed set as duplicates without ever
		// emitting its summary.
		s.applyMu.Lock()
		s.mu.Lock()
		// Redirect is shared, not copied: handoff.go only ever replaces
		// it whole.
		row := checkpointSource{ID: s.ID, SourceState: s.stateLocked(), lifecycle: s.life}
		encErr := s.summaryErr
		s.mu.Unlock()
		s.applyMu.Unlock()
		if encErr != nil {
			return fmt.Errorf("collector: checkpoint: source %q: items: %w", s.ID, encErr)
		}
		rows = append(rows, row)
	}
	// Rows in ID order: one state always writes the same bytes.
	slices.SortFunc(rows, func(x, y checkpointSource) int { return cmp.Compare(x.ID, y.ID) })

	if err := c.ckptFile.Write(c.cfg.CheckpointPath, checkpointFile{Version: checkpointVersion, Sources: rows}); err != nil {
		return fmt.Errorf("collector: checkpoint: %w", err)
	}
	c.metCkpts.Inc()
	return nil
}

// CheckpointConfigured reports whether the collector persists checkpoints
// at all. Callers with optional durability (the drainer) use it to tell a
// real checkpoint failure from the expected error on an ephemeral
// collector.
func (c *Collector) CheckpointConfigured() bool {
	return c.cfg.CheckpointPath != ""
}

// restoreCheckpoint loads path into the sources map. Called from New
// before any connection is accepted, so no locking discipline applies yet.
// A row that will not restore fails the whole restore and names its
// source: a collector never silently starts without state it acked.
func (c *Collector) restoreCheckpoint(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file checkpointFile
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("collector: checkpoint %s: %w", path, err)
	}
	if file.Version != 1 && file.Version != checkpointVersion {
		return fmt.Errorf("collector: checkpoint %s: unsupported version %d", path, file.Version)
	}
	for _, cs := range file.Sources {
		src := &Source{ID: cs.ID, life: cs.lifecycle, frozen: cs.HandedOff, conns: map[net.Conn]struct{}{}}
		items, err := loadRow(cs.ID, &cs.SourceState)
		if err != nil {
			return fmt.Errorf("collector: checkpoint %s: source %q: %w", path, cs.ID, err)
		}
		src.setStateLocked(cs.SourceState, items)
		c.sources[cs.ID] = src
	}
	c.metSources.SetInt(len(c.sources))
	return nil
}
