package agg

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/collector"
	"repro/internal/core"
	"repro/internal/durable"
)

// The aggregator checkpoint mirrors the collector's restart story one
// tier up: the per-shard ack watermarks (so dedup survives and acked
// summaries are never re-merged) and every source's latest merged row (so
// /fleet resumes populated). Replaced atomically (durable.WriteFile).

// checkpointVersion guards the file layout.
const checkpointVersion = 1

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

type checkpointSource struct {
	Shard   string                  `json:"shard"`
	Summary collector.SourceSummary `json:"summary"`
	FreqHz  uint64                  `json:"freq_hz,omitempty"`
	Items   []core.Item             `json:"items,omitempty"`
}

// Checkpoint writes the aggregator's durable state to cfg.CheckpointPath
// atomically. Every shard row records its settled watermark — the merges
// this very snapshot contains; committing it to memory is the acking
// connection's job, after this returns nil (the collector's rule).
func (a *Aggregator) Checkpoint() error {
	if a.cfg.CheckpointPath == "" {
		return fmt.Errorf("agg: no checkpoint path configured")
	}
	// Serialize writers end to end: snapshot + rename must be one atomic
	// unit, or an older snapshot could rename over a newer checkpoint and
	// un-persist a watermark another connection already acked against.
	a.ckptMu.Lock()
	defer a.ckptMu.Unlock()

	file := checkpointFile{Version: checkpointVersion}
	a.mu.Lock()
	for id, wm := range a.shards {
		file.Shards = append(file.Shards, checkpointShard{ID: id, Epoch: wm.Epoch, LastAcked: wm.Settled})
	}
	for _, s := range a.sources {
		file.Sources = append(file.Sources, checkpointSource{
			Shard:   s.shard,
			Summary: s.row.Summary,
			FreqHz:  s.row.FreqHz,
			// Rows are replaced wholesale, never mutated, so sharing the
			// items' backing array with the live state is safe.
			Items: s.row.Items,
		})
	}
	a.mu.Unlock()

	data, err := json.Marshal(file)
	if err != nil {
		return fmt.Errorf("agg: checkpoint encode: %w", err)
	}
	if err := durable.WriteFile(a.cfg.CheckpointPath, data); err != nil {
		return fmt.Errorf("agg: checkpoint: %w", err)
	}
	a.metCkpts.Inc()
	return nil
}

// restoreCheckpoint loads path into the shard and source maps. Called
// from New before any connection is accepted.
func (a *Aggregator) restoreCheckpoint(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var file checkpointFile
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("agg: checkpoint %s: %w", path, err)
	}
	if file.Version != checkpointVersion {
		return fmt.Errorf("agg: checkpoint %s: unsupported version %d", path, file.Version)
	}
	for _, cs := range file.Shards {
		wm := durable.Restored(cs.Epoch, cs.LastAcked)
		a.shards[cs.ID] = &wm
	}
	for _, cs := range file.Sources {
		a.sources[cs.Summary.ID] = &mergedSource{
			shard: cs.Shard,
			row:   collector.SourceRow{Summary: cs.Summary, FreqHz: cs.FreqHz, Items: cs.Items},
		}
	}
	a.metShards.SetInt(len(a.shards))
	a.metSources.SetInt(len(a.sources))
	return nil
}
