package agg

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/wire"
)

// The aggregator checkpoint mirrors the collector's restart story one
// tier up: the per-shard ack watermarks (so dedup survives and acked
// summaries are never re-merged) and, per source, the last TFleetSummary
// and TVerdicts payloads it merged (so /fleet and /verdicts resume
// populated). The payloads are written as they arrived and restored
// through the live merge's own check, decoder and setters, so a restored
// source is the merged one by construction. Replaced atomically
// (durable.WriteFile).

// checkpointVersion guards the file layout. Version 1 files (JSON rows,
// no verdicts) are still read: restore upgrades them (upgradeV1).
const checkpointVersion = 2

type checkpointFile struct {
	Version int                `json:"version"`
	Shards  []checkpointShard  `json:"shards"`
	Sources []checkpointSource `json:"sources"`
}

type checkpointShard struct {
	ID        string `json:"id"`
	Epoch     uint64 `json:"epoch"`
	LastAcked uint64 `json:"last_acked"`
}

// checkpointSource is one source's merged state. ID repeats the source
// the payloads name, so a payload that fails to decode still has a name,
// and a flipped byte in a payload's own ID is caught. At least one payload
// is set, except for a version-1 verdict placeholder, which restores as an
// ID-only row.
type checkpointSource struct {
	ID           string `json:"id"`
	Shard        string `json:"shard"`
	VerdictShard string `json:"verdict_shard,omitempty"`
	Summary      []byte `json:"summary,omitempty"`
	Verdicts     []byte `json:"verdicts,omitempty"`
}

// Checkpoint writes the aggregator's durable state to cfg.CheckpointPath
// atomically. Every shard row records its settled watermark — the merges
// this very snapshot contains; committing it to memory is the acking
// connection's job, after this returns nil (the collector's rule). Rows
// are sorted by ID, so one state always writes the same bytes.
func (a *Aggregator) Checkpoint() error {
	if a.cfg.CheckpointPath == "" {
		return fmt.Errorf("agg: no checkpoint path configured")
	}
	// Serialize writers end to end: snapshot + rename must be one atomic
	// unit, or an older snapshot could rename over a newer checkpoint and
	// un-persist a watermark another connection already acked against.
	a.ckptMu.Lock()
	defer a.ckptMu.Unlock()

	file := checkpointFile{Version: checkpointVersion, Shards: a.ckptShards[:0], Sources: a.ckptRows[:0]}
	defer func() {
		// Keep the slices, not what they hold: a payload replaced since
		// must not stay alive here.
		clear(file.Shards)
		clear(file.Sources)
		a.ckptShards, a.ckptRows = file.Shards[:0], file.Sources[:0]
	}()
	a.mu.Lock()
	for id, wm := range a.shards {
		file.Shards = append(file.Shards, checkpointShard{ID: id, Epoch: wm.Epoch, LastAcked: wm.Settled})
	}
	for id, s := range a.sources {
		// The payloads are replaced wholesale, never mutated, so sharing
		// them with the live state is safe.
		file.Sources = append(file.Sources, checkpointSource{
			ID:           id,
			Shard:        s.shard,
			VerdictShard: s.verdictShard,
			Summary:      s.row.Payload,
			Verdicts:     s.verdictsFrame,
		})
	}
	a.mu.Unlock()
	slices.SortFunc(file.Shards, func(x, y checkpointShard) int { return cmp.Compare(x.ID, y.ID) })
	slices.SortFunc(file.Sources, func(x, y checkpointSource) int { return cmp.Compare(x.ID, y.ID) })

	// The payloads are []byte, so encoding/json writes them as base64 and
	// never looks at an item, into a buffer kept from the last checkpoint:
	// a checkpoint costs its bytes, however many items the rows hold, and
	// allocates no output for them.
	if err := a.ckptFile.Write(a.cfg.CheckpointPath, file); err != nil {
		return fmt.Errorf("agg: checkpoint: %w", err)
	}
	a.metCkpts.Inc()
	return nil
}

// restoreCheckpoint loads path into the shard and source maps. Called
// from New before any connection is accepted. It counts no merge: the
// restored rows were counted when they were first merged.
func (a *Aggregator) restoreCheckpoint(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("agg: checkpoint %s: %w", path, err)
	}
	var file checkpointFile
	switch head.Version {
	case 1:
		file, err = upgradeV1(data)
	case checkpointVersion:
		err = json.Unmarshal(data, &file)
	default:
		err = fmt.Errorf("unsupported version %d", head.Version)
	}
	if err != nil {
		return fmt.Errorf("agg: checkpoint %s: %w", path, err)
	}
	for _, cs := range file.Shards {
		wm := durable.Restored(cs.Epoch, cs.LastAcked)
		a.shards[cs.ID] = &wm
	}
	for _, cs := range file.Sources {
		ms, err := restoreSource(cs)
		if err != nil {
			return fmt.Errorf("agg: checkpoint %s: source %q: %w", path, cs.ID, err)
		}
		a.sources[cs.ID] = ms
	}
	a.metShards.SetInt(len(a.shards))
	a.metSources.SetInt(len(a.sources))
	return nil
}

// restoreSource rebuilds one source from its checkpointed payloads with
// the check, decoder and setters the live merge uses. The summary's items
// stay encoded, as a merged source's do.
func restoreSource(cs checkpointSource) (*mergedSource, error) {
	ms := newMergedSource(cs.ID)
	if cs.Summary != nil {
		fs, items, err := wire.CheckFleetSummary(cs.Summary)
		if err == nil && fs.Source != cs.ID {
			err = fmt.Errorf("payload names source %q", fs.Source)
		}
		if err != nil {
			return nil, fmt.Errorf("summary: %w", err)
		}
		ms.setSummary(fs, items, cs.Summary)
	}
	if cs.Verdicts != nil {
		vs, err := wire.DecodeVerdicts(cs.Verdicts)
		if err == nil && vs.Source != cs.ID {
			err = fmt.Errorf("payload names source %q", vs.Source)
		}
		if err != nil {
			return nil, fmt.Errorf("verdicts: %w", err)
		}
		ms.setVerdicts(vs, cs.Verdicts)
	}
	ms.shard = cs.Shard
	ms.verdictShard = cs.VerdictShard
	return ms, nil
}

// checkpointFileV1 is the version-1 layout: each source's row as JSON,
// and no verdicts.
type checkpointFileV1 struct {
	Shards  []checkpointShard `json:"shards"`
	Sources []struct {
		Shard   string                  `json:"shard"`
		Summary collector.SourceSummary `json:"summary"`
		FreqHz  uint64                  `json:"freq_hz,omitempty"`
		Items   []core.Item             `json:"items,omitempty"`
	} `json:"sources"`
}

// upgradeV1 turns a version-1 file into the current layout, encoding each
// row once as the TFleetSummary payload it was merged from: its summary,
// with the set's clock and items. A row with no clock was a verdict
// placeholder whose verdicts version 1 did not keep: it becomes an ID-only
// source.
func upgradeV1(data []byte) (checkpointFile, error) {
	var v1 checkpointFileV1
	if err := json.Unmarshal(data, &v1); err != nil {
		return checkpointFile{}, err
	}
	file := checkpointFile{Version: checkpointVersion, Shards: v1.Shards}
	for _, r := range v1.Sources {
		s := r.Summary
		cs := checkpointSource{ID: s.ID, Shard: r.Shard}
		if r.FreqHz != 0 {
			p, err := wire.AppendFleetSummary(nil, wire.FleetSummary{
				Source: s.ID, FreqHz: r.FreqHz, Sets: s.Sets, AbortedSets: s.AbortedSets,
				LostMarkers: s.LostMarkers, LostSamples: s.LostSamples, CRCErrors: s.CRCErrors,
				Disconnects: s.Disconnects, MeanConf: s.MeanConfidence, Degraded: s.Degraded,
				GapLine: s.GapLine, Items: r.Items,
			})
			if err != nil {
				return checkpointFile{}, fmt.Errorf("source %q: %w", s.ID, err)
			}
			cs.Summary = p
		}
		file.Sources = append(file.Sources, cs)
	}
	return file, nil
}
