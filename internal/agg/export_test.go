package agg

// UpstreamAcked returns shard's delivery watermark (epoch, last acked
// seq), zero values if the shard never connected.
func (a *Aggregator) UpstreamAcked(shard string) (epoch, seq uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if wm := a.shards[shard]; wm != nil {
		return wm.Epoch, wm.Acked
	}
	return 0, 0
}
