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

	// Drain/handoff lifecycle (see handoff.go). HandedOff restores as
	// frozen: once a source's state has been staged for a new owner, a
	// restarted collector must keep refusing its frames — the staged
	// handoff replays from the drain shipper's spool, and accepting frames
	// here again would fork the stream. Internal marks handoff peer rows;
	// their watermark is what makes a replayed handoff a duplicate. The
	// Imported trio is the receiving side's handoff dedup marker.
	Internal      bool     `json:"internal,omitempty"`
	HandedOff     bool     `json:"handed_off,omitempty"`
	Redirect      []string `json:"redirect,omitempty"`
	Imported      bool     `json:"imported,omitempty"`
	ImportedEpoch uint64   `json:"imported_epoch,omitempty"`
	ImportedSeq   uint64   `json:"imported_seq,omitempty"`
}

// stateLocked copies the source's persisted row out, its last set's items
// as the summary payload (none when they did not encode: summaryErr). The
// clock it records is the one those items were integrated against, never
// an open set's; the watermark is the settled one — the sequence number
// this very accounting reflects — whether or not it has been acknowledged
// yet. Caller holds s.applyMu and s.mu.
func (s *Source) stateLocked() wire.SourceState {
	s.payloadLocked()
	return wire.SourceState{
		Epoch:         s.wm.Epoch,
		LastAcked:     s.wm.Settled,
		FreqHz:        s.freq,
		Gaps:          s.gaps,
		Diag:          s.diag,
		Sets:          s.sets,
		AbortedSets:   s.abortedSets,
		Frames:        s.frames,
		CRCErrors:     s.crcErrors,
		Disconnects:   s.disconnects,
		LostMarkers:   s.lostMarkers,
		LostSamples:   s.lostSamples,
		ConfSum:       s.confSum,
		ConfN:         s.confN,
		LastMeanConf:  s.lastMeanConf,
		LastDegraded:  s.lastDegraded,
		EverConnected: s.everConnected,
		Summary:       s.summary,
	}
}

// payloadLocked makes summary hold the payload finishSet encoded into
// sumBuf, copying it out on the first read after the set: a copy the next
// set's encode cannot touch, so a checkpoint may keep writing it after it
// dropped the source's locks. Caller holds s.applyMu (finishSet writes
// sumBuf under it) and s.mu.
func (s *Source) payloadLocked() {
	if s.sumUnread {
		s.summary, s.sumUnread = bytes.Clone(s.sumBuf), false
	}
}

// appendSummary appends a set's items to dst as the source's checkpoint
// payload. A payload the source holds is never appended into, so a
// checkpoint may keep writing it after it dropped the source's locks.
func appendSummary(dst []byte, id string, freq uint64, items []core.Item) ([]byte, error) {
	return wire.AppendFleetSummary(dst, wire.FleetSummary{Source: id, FreqHz: freq, Items: items})
}

// loadRow readies a persisted row — a checkpoint row or a handoff — for
// setStateLocked and returns its items, touching no source. Version-1
// JSON items first become the payload a version-2 row carries
// (upgradeItems), so every row installs from its payload: it must decode
// and name the row's own source and clock, and its dictionary gives the
// items one *symtab.Fn per function, which per-function reports key on.
func loadRow(id string, st *wire.SourceState) ([]core.Item, error) {
	if len(st.Items) > 0 {
		if st.Summary != nil {
			return nil, fmt.Errorf("row carries both JSON items and a summary")
		}
		var err error
		if st.Summary, err = upgradeItems(id, st.FreqHz, st.Items); err != nil {
			return nil, fmt.Errorf("items: %w", err)
		}
		st.Items = nil
	}
	if st.Summary == nil {
		return nil, nil
	}
	fs, err := wire.DecodeFleetSummary(st.Summary)
	switch {
	case err != nil:
	case fs.Source != id:
		err = fmt.Errorf("payload names source %q", fs.Source)
	case fs.FreqHz != st.FreqHz:
		err = fmt.Errorf("payload clock %d Hz, row clock %d Hz", fs.FreqHz, st.FreqHz)
	}
	if err != nil {
		return nil, fmt.Errorf("summary: %w", err)
	}
	return fs.Items, nil
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
	return appendSummary(nil, id, freq, items)
}

// setStateLocked installs a row loadRow readied, with its items: the
// inverse of stateLocked, and the one place a restored or imported row is
// installed. Mid-set progress is never persisted, so all three watermarks
// resume at the recorded set boundary and the shipper replays any partial
// set in full. Caller holds s.mu (or owns s outright).
func (s *Source) setStateLocked(st wire.SourceState, items []core.Item) {
	s.wm = durable.Restored(st.Epoch, st.LastAcked)
	s.freq = st.FreqHz
	s.gaps = st.Gaps
	s.diag = st.Diag
	s.sets = st.Sets
	s.abortedSets = st.AbortedSets
	s.frames = st.Frames
	s.crcErrors = st.CRCErrors
	s.disconnects = st.Disconnects
	s.lostMarkers = st.LostMarkers
	s.lostSamples = st.LostSamples
	s.confSum = st.ConfSum
	s.confN = st.ConfN
	s.lastMeanConf = st.LastMeanConf
	s.lastDegraded = st.LastDegraded
	s.everConnected = st.EverConnected
	s.items = items
	s.summary, s.summaryErr, s.sumUnread = st.Summary, nil, false
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
	srcs := c.sourceList()
	file := checkpointFile{Version: checkpointVersion, Sources: make([]checkpointSource, 0, len(srcs))}
	for _, s := range srcs {
		// The apply mutex waits out an apply in flight: a set settles before
		// its OnSummary tap runs, and a restore from a snapshot between the
		// two would acknowledge the replayed set as duplicates without ever
		// emitting its summary.
		s.applyMu.Lock()
		s.mu.Lock()
		row := checkpointSource{
			ID:            s.ID,
			SourceState:   s.stateLocked(),
			Internal:      s.internal,
			HandedOff:     s.handedOff,
			Redirect:      append([]string(nil), s.redirect...),
			Imported:      s.imported,
			ImportedEpoch: s.importedEpoch,
			ImportedSeq:   s.importedSeq,
		}
		encErr := s.summaryErr
		s.mu.Unlock()
		s.applyMu.Unlock()
		if encErr != nil {
			return fmt.Errorf("collector: checkpoint: source %q: items: %w", s.ID, encErr)
		}
		file.Sources = append(file.Sources, row)
	}
	// Rows in ID order: one state always writes the same bytes.
	slices.SortFunc(file.Sources, func(x, y checkpointSource) int { return cmp.Compare(x.ID, y.ID) })

	if err := c.ckptFile.Write(c.cfg.CheckpointPath, file); err != nil {
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
		src := &Source{
			ID:            cs.ID,
			internal:      cs.Internal,
			handedOff:     cs.HandedOff,
			frozen:        cs.HandedOff,
			redirect:      cs.Redirect,
			imported:      cs.Imported,
			importedEpoch: cs.ImportedEpoch,
			importedSeq:   cs.ImportedSeq,
			conns:         map[net.Conn]struct{}{},
		}
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
