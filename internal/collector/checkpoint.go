package collector

import (
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

// checkpointVersion guards the file layout.
const checkpointVersion = 1

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

// stateLocked copies the source's persisted row out. The watermark it
// records is the settled one — the sequence number this very accounting
// reflects — whether or not it has been acknowledged yet. Caller holds
// s.mu.
func (s *Source) stateLocked() wire.SourceState {
	st := wire.SourceState{
		Epoch:         s.wm.Epoch,
		LastAcked:     s.wm.Settled,
		FreqHz:        s.freq,
		Items:         append([]core.Item(nil), s.items...),
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
	}
	for i := range st.Items {
		st.Items[i].Funcs = append([]core.FuncSpan(nil), st.Items[i].Funcs...)
	}
	if s.syms != nil {
		for _, fn := range s.syms.Fns() {
			st.Symbols = append(st.Symbols, wire.HandoffSymbol{Name: fn.Name, Size: fn.Size})
		}
	}
	return st
}

// setStateLocked installs a persisted row, the inverse of stateLocked.
// Mid-set progress is never persisted, so all three watermarks resume at
// the recorded set boundary and the shipper replays any partial set in
// full. Re-registering the symbols in recorded order reproduces the
// deterministic bases the Items point into; a table that will not rebuild
// is reported and left nil, everything else still installs. Caller holds
// s.mu (or owns s outright).
func (s *Source) setStateLocked(st wire.SourceState) error {
	s.wm = durable.Restored(st.Epoch, st.LastAcked)
	s.freq = st.FreqHz
	s.items = st.Items
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
	s.syms = nil
	if len(st.Symbols) == 0 {
		return nil
	}
	tab := symtab.NewTable()
	for _, sym := range st.Symbols {
		if _, err := tab.Register(sym.Name, sym.Size); err != nil {
			return fmt.Errorf("symbol %q: %w", sym.Name, err)
		}
	}
	s.syms = tab
	return nil
}

// Checkpoint writes the collector's durable state to cfg.CheckpointPath
// atomically. It is called before every ack (durable.Receiver), on daemon
// shutdown, and on the daemon's periodic timer. Every row records its
// source's settled watermark; committing that watermark to memory (and so
// advertising it) is the acking connection's job, after this returns nil.
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
	file := checkpointFile{Version: checkpointVersion}
	for _, s := range c.sourceList() {
		// The apply mutex waits out an apply in flight: a set settles before
		// its OnSummary tap runs, and a restore from a snapshot between the
		// two would acknowledge the replayed set as duplicates without ever
		// emitting its summary.
		s.applyMu.Lock()
		s.mu.Lock()
		file.Sources = append(file.Sources, checkpointSource{
			ID:            s.ID,
			SourceState:   s.stateLocked(),
			Internal:      s.internal,
			HandedOff:     s.handedOff,
			Redirect:      append([]string(nil), s.redirect...),
			Imported:      s.imported,
			ImportedEpoch: s.importedEpoch,
			ImportedSeq:   s.importedSeq,
		})
		s.mu.Unlock()
		s.applyMu.Unlock()
	}
	// Rows in ID order: one state always writes the same bytes.
	slices.SortFunc(file.Sources, func(x, y checkpointSource) int { return cmp.Compare(x.ID, y.ID) })

	data, err := json.Marshal(file)
	if err != nil {
		return fmt.Errorf("collector: checkpoint encode: %w", err)
	}
	if err := durable.WriteFile(c.cfg.CheckpointPath, data); err != nil {
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
func (c *Collector) restoreCheckpoint(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file checkpointFile
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("collector: checkpoint %s: %w", path, err)
	}
	if file.Version != checkpointVersion {
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
		if err := src.setStateLocked(cs.SourceState); err != nil {
			return fmt.Errorf("collector: checkpoint %s: %w", path, err)
		}
		c.sources[cs.ID] = src
	}
	c.metSources.SetInt(len(c.sources))
	return nil
}
