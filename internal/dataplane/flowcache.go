package dataplane

// FlowCache memoizes per-flow verdicts, the metadb-style cached lookup
// stage in front of the compiled matcher: packets whose 40-byte key was
// already classified skip the trie walk and route lookup entirely. It is
// set-associative with LRU within each set, so adversarial key sequences
// (more distinct flows mapping to one set than it has ways) evict live
// entries — the organic warm/cold fluctuation the cold-burst scenario
// flushes to provoke.
type FlowCache struct {
	ways    int
	sets    int // power of two
	mask    uint64
	entries []flowEntry
	tick    uint64
	stats   FlowStats
}

type flowEntry struct {
	key     [KeyLen]byte
	verdict Verdict
	stamp   uint64
	valid   bool
}

// FlowStats counts cache traffic since construction (Flush does not
// reset counters; it counts as evictions).
type FlowStats struct {
	Hits, Misses, Inserts, Evictions uint64
}

// flowWays is the set associativity.
const flowWays = 4

// NewFlowCache builds a cache holding about capacity entries (rounded up
// to a power-of-two number of 4-way sets, minimum one set).
func NewFlowCache(capacity int) *FlowCache {
	sets := 1
	for sets*flowWays < capacity {
		sets <<= 1
	}
	return &FlowCache{
		ways:    flowWays,
		sets:    sets,
		mask:    uint64(sets - 1),
		entries: make([]flowEntry, sets*flowWays),
	}
}

// Entries returns the cache's capacity in entries.
func (fc *FlowCache) Entries() int { return fc.sets * fc.ways }

// Stats returns traffic counters.
func (fc *FlowCache) Stats() FlowStats { return fc.stats }

// hashKey is FNV-1a over the packet key.
func hashKey(key *[KeyLen]byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range key {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

// probeLine is the synthetic cache line of a key's set, at base: the line
// the timing model loads on a probe and stores on an install.
func (fc *FlowCache) probeLine(key *[KeyLen]byte, base uint64) uint64 {
	return base + (hashKey(key)&fc.mask)*64
}

// Lookup probes the cache, refreshing LRU order on hit.
func (fc *FlowCache) Lookup(key *[KeyLen]byte) (Verdict, bool) {
	set := fc.entries[(hashKey(key)&fc.mask)*uint64(fc.ways):][:fc.ways]
	for i := range set {
		if set[i].valid && set[i].key == *key {
			fc.tick++
			set[i].stamp = fc.tick
			fc.stats.Hits++
			return set[i].verdict, true
		}
	}
	fc.stats.Misses++
	return Verdict{}, false
}

// Insert stores a verdict, evicting the set's LRU entry when full.
func (fc *FlowCache) Insert(key *[KeyLen]byte, v Verdict) {
	set := fc.entries[(hashKey(key)&fc.mask)*uint64(fc.ways):][:fc.ways]
	victim := 0
	for i := range set {
		if set[i].valid && set[i].key == *key {
			victim = i
			break
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	if set[victim].valid && set[victim].key != *key {
		fc.stats.Evictions++
	}
	fc.tick++
	set[victim] = flowEntry{key: *key, verdict: v, stamp: fc.tick, valid: true}
	fc.stats.Inserts++
}

// Flush invalidates every entry (rule churn: cached verdicts may be
// stale). Live entries count as evictions.
func (fc *FlowCache) Flush() {
	for i := range fc.entries {
		if fc.entries[i].valid {
			fc.stats.Evictions++
			fc.entries[i].valid = false
		}
	}
}
