package dataplane

import (
	"testing"
)

func keyOf(n uint64) [KeyLen]byte {
	var k [KeyLen]byte
	k[0] = 4
	k[32], k[33], k[34], k[35] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	return k
}

func TestFlowCacheBasics(t *testing.T) {
	fc := NewFlowCache(16)
	if fc.sets*fc.ways < 16 {
		t.Fatalf("capacity %d < requested 16", fc.sets*fc.ways)
	}
	k := keyOf(1)
	if _, ok := fc.Lookup(&k); ok {
		t.Fatal("hit on empty cache")
	}
	v := Verdict{Rule: 3, Action: Allow, NextHop: 7}
	fc.Insert(&k, v)
	got, ok := fc.Lookup(&k)
	if !ok || got != v {
		t.Fatalf("got (%+v,%v), want (%+v,true)", got, ok, v)
	}
	// Re-insert under the same key replaces, not evicts.
	v2 := Verdict{Rule: 4, Action: Deny, NextHop: -1}
	fc.Insert(&k, v2)
	if got, _ := fc.Lookup(&k); got != v2 {
		t.Fatalf("replacement lost: %+v", got)
	}
	if st := fc.Stats(); st.Evictions != 0 {
		t.Errorf("same-key insert counted as eviction: %+v", st)
	}
	fc.Flush()
	if _, ok := fc.Lookup(&k); ok {
		t.Fatal("hit after flush")
	}
	if st := fc.Stats(); st.Evictions != 1 {
		t.Errorf("flush of one live entry: %+v", st)
	}
}

// TestFlowCacheAdversarialSet drives one set with more distinct flows
// than it has ways: LRU must evict the stalest, and the most recently
// used entries must survive.
func TestFlowCacheAdversarialSet(t *testing.T) {
	fc := NewFlowCache(16) // 4 sets × 4 ways
	targetSet := hashKey(&[KeyLen]byte{}) & fc.mask

	// Collect 6 distinct keys that land in one set.
	var keys [][KeyLen]byte
	for n := uint64(0); len(keys) < 6; n++ {
		k := keyOf(n)
		if hashKey(&k)&fc.mask == targetSet {
			keys = append(keys, k)
		}
	}
	for i := range keys[:4] {
		fc.Insert(&keys[i], Verdict{Rule: i})
	}
	// Refresh keys 1..3; key 0 becomes LRU.
	for i := 1; i < 4; i++ {
		if _, ok := fc.Lookup(&keys[i]); !ok {
			t.Fatalf("key %d missing before overflow", i)
		}
	}
	fc.Insert(&keys[4], Verdict{Rule: 4})
	if _, ok := fc.Lookup(&keys[0]); ok {
		t.Fatal("LRU key survived overflow")
	}
	for i := 1; i < 5; i++ {
		if got, ok := fc.Lookup(&keys[i]); !ok || got.Rule != i {
			t.Fatalf("key %d lost after overflow (got %+v, %v)", i, got, ok)
		}
	}
	// One more overflow: key 5 replaces the new LRU (key 4 was inserted
	// before keys 1..4 were refreshed above... verify via model below).
	if st := fc.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

// TestFlowCacheDifferential checks the cache against a per-set LRU model
// over a random op stream.
func TestFlowCacheDifferential(t *testing.T) {
	fc := NewFlowCache(32)
	type slot struct {
		key   [KeyLen]byte
		v     Verdict
		stamp uint64
	}
	model := make(map[uint64][]slot) // set → entries, unbounded order
	tick := uint64(0)

	lookupModel := func(k *[KeyLen]byte) (Verdict, bool) {
		set := hashKey(k) & fc.mask
		for i := range model[set] {
			if model[set][i].key == *k {
				tick++
				model[set][i].stamp = tick
				return model[set][i].v, true
			}
		}
		return Verdict{}, false
	}
	insertModel := func(k *[KeyLen]byte, v Verdict) {
		set := hashKey(k) & fc.mask
		s := model[set]
		tick++
		for i := range s {
			if s[i].key == *k {
				s[i].v, s[i].stamp = v, tick
				return
			}
		}
		if len(s) < flowWays {
			model[set] = append(s, slot{*k, v, tick})
			return
		}
		victim := 0
		for i := range s {
			if s[i].stamp < s[victim].stamp {
				victim = i
			}
		}
		s[victim] = slot{*k, v, tick}
	}

	rng := dpRNG{state: 0x666c6f77} // "flow"
	for op := 0; op < 20000; op++ {
		k := keyOf(rng.next() % 60) // small key space → constant collisions
		if rng.next()%2 == 0 {
			got, ok := fc.Lookup(&k)
			want, wantOK := lookupModel(&k)
			if ok != wantOK || got != want {
				t.Fatalf("op %d: Lookup = (%+v,%v), model (%+v,%v)", op, got, ok, want, wantOK)
			}
		} else {
			v := Verdict{Rule: int(rng.next() % 100)}
			fc.Insert(&k, v)
			insertModel(&k, v)
		}
	}
	st := fc.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 {
		t.Errorf("differential stream too tame: %+v", st)
	}
}
