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

// checkpointVersion guards the file layout. Version 1 rows carry the
// items as JSON; they are still read.
const checkpointVersion = 2

type checkpointFile struct {
	Version int                `json:"version"`
	Sources []checkpointSource `json:"sources"`
}

// checkpointSource is one source's row: the shared wire.SourceState (the
// same struct a handoff carries) plus what only matters to the collector
// that wrote it. A version-2 row leaves SourceState.Items empty and
// carries the items in Summary instead.
type checkpointSource struct {
	ID string `json:"id"`
	wire.SourceState

	// Summary is the last completed set's items as the TFleetSummary
	// payload finishSet built (Source, FreqHz and Items set, every other
	// field zero). It is a []byte, so encoding/json writes it as base64
	// and never looks at an item.
	Summary []byte `json:"summary,omitempty"`

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

// stateLocked copies the source's persisted row out, all but the items:
// the checkpoint writes those as the source's summary payload, a handoff
// copies them in (ExportSource). The clock and symbols it records are
// the ones those items were integrated against, never an open set's; the
// watermark is the settled one — the sequence number this very
// accounting reflects — whether or not it has been acknowledged yet.
// Caller holds s.mu.
func (s *Source) stateLocked() wire.SourceState {
	st := wire.SourceState{
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
	}
	if s.syms != nil {
		for _, fn := range s.syms.Fns() {
			st.Symbols = append(st.Symbols, wire.HandoffSymbol{Name: fn.Name, Size: fn.Size})
		}
	}
	return st
}

// appendSummary appends a set's items to dst as the source's checkpoint
// payload. A payload the source holds is never appended into, so a
// checkpoint may keep writing it after it dropped the source's locks.
func appendSummary(dst []byte, id string, freq uint64, items []core.Item) ([]byte, error) {
	return wire.AppendFleetSummary(dst, wire.FleetSummary{Source: id, FreqHz: freq, Items: items})
}

// setStateLocked installs a persisted row into s, the inverse of
// stateLocked plus the items; it is the one place a restored (either
// checkpoint version) or imported row is installed. summary is the row's
// payload when it arrived as one (a version-2 checkpoint, already decoded
// into st.Items); JSON items (a version-1 row, a handoff) are encoded here
// if the collector checkpoints. Mid-set progress is never persisted, so
// all three watermarks resume at the recorded set boundary and the
// shipper replays any partial set in full.
//
// Re-registering the symbols in recorded order reproduces the
// deterministic bases, and every span is re-pointed at the rebuilt
// table's own *symtab.Fn (see repoint): the decoders allocate a function
// per span or per payload, and per-function reports key on the pointer. A
// payload span whose function is not in the table fails the row. JSON
// items that do not fit the table keep their own functions, one per
// function, and the row keeps no table: a writer before version 2
// recorded the table of the set then open beside the last completed set's
// items, and the shipper replays that set with its own TSymtab. A table
// that will not rebuild is reported after everything else installed, as
// are items that will not encode (which then fail every checkpoint, like
// a set's in finishSet). Caller holds s.mu (or owns s outright).
func (c *Collector) setStateLocked(s *Source, st wire.SourceState, summary []byte) error {
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
	s.syms, s.items, s.summary, s.summaryErr = nil, nil, nil, nil

	var tab *symtab.Table
	var tabErr error
	if len(st.Symbols) > 0 {
		tab = symtab.NewTable()
		for _, sym := range st.Symbols {
			if _, err := tab.Register(sym.Name, sym.Size); err != nil {
				tab, tabErr = nil, fmt.Errorf("symbol %q: %w", sym.Name, err)
				break
			}
		}
	}
	if err := repoint(st.Items, tab); err != nil {
		if summary != nil {
			return err
		}
		// JSON items beside an open set's table (see above).
		tab = nil
		_ = repoint(st.Items, nil) // without a table it cannot fail
	}
	s.syms = tab
	if len(st.Items) > 0 {
		s.items = st.Items
	}
	if summary == nil && len(st.Items) > 0 && c.cfg.CheckpointPath != "" {
		if summary, s.summaryErr = appendSummary(nil, s.ID, st.FreqHz, st.Items); s.summaryErr != nil {
			return fmt.Errorf("items: %w", s.summaryErr)
		}
	}
	s.summary = summary
	return tabErr
}

// repoint points every span in items at tab's own function: the one with
// the span's ID, which must equal the span's function in every field. It
// fails, changing nothing, on a span that does not match. Without a table
// it only makes spans of equal functions share one *symtab.Fn.
func repoint(items []core.Item, tab *symtab.Table) error {
	if tab == nil {
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
		return nil
	}
	fns := tab.Fns()
	lookup := func(fn *symtab.Fn) *symtab.Fn {
		if fn != nil && fn.ID >= 0 && fn.ID < len(fns) && *fns[fn.ID] == *fn {
			return fns[fn.ID]
		}
		return nil
	}
	for i := range items {
		for j, sp := range items[i].Funcs {
			if lookup(sp.Fn) == nil {
				return fmt.Errorf("item %d span %d: function %v is not in the symbol table", items[i].ID, j, sp.Fn)
			}
		}
	}
	for i := range items {
		for j := range items[i].Funcs {
			items[i].Funcs[j].Fn = lookup(items[i].Funcs[j].Fn)
		}
	}
	return nil
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
			Summary:       s.summary,
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
		st, summary, err := decodeRow(cs)
		if err == nil {
			err = c.setStateLocked(src, st, summary)
		}
		if err != nil {
			return fmt.Errorf("collector: checkpoint %s: source %q: %w", path, cs.ID, err)
		}
		c.sources[cs.ID] = src
	}
	c.metSources.SetInt(len(c.sources))
	return nil
}

// decodeRow returns one checkpoint row's state with its items, and the
// payload they came from. A version-2 row's payload must decode and name
// the row's own source and clock; a version-1 row already holds its items
// as JSON and returns no payload.
func decodeRow(cs checkpointSource) (wire.SourceState, []byte, error) {
	st := cs.SourceState
	if cs.Summary == nil {
		return st, nil, nil
	}
	fs, err := wire.DecodeFleetSummary(cs.Summary)
	switch {
	case err != nil:
	case fs.Source != cs.ID:
		err = fmt.Errorf("payload names source %q", fs.Source)
	case fs.FreqHz != st.FreqHz:
		err = fmt.Errorf("payload clock %d Hz, row clock %d Hz", fs.FreqHz, st.FreqHz)
	}
	if err != nil {
		return st, nil, fmt.Errorf("summary: %w", err)
	}
	st.Items = fs.Items
	return st, cs.Summary, nil
}
