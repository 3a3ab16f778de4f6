// Package hashx holds the repo's fully specified hashes and PRNG. Ring
// ownership, ingest-shard pinning, backoff jitter, fault plans and the
// detector's subsampling must compute the same values in every process
// and under every Go toolchain — golden fixtures and a deployed fleet's
// source placement both depend on it — so none of them may use math/rand
// or hash/maphash, and all of them share the one definition here.
//
// internal/dataplane's flow cache keeps its own fixed-width FNV-1a over a
// 40-byte key: a different input type on a per-packet hot path.
package hashx

// FNV1a is 64-bit FNV-1a over the bytes of s.
func FNV1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Mix64 is the splitmix64 finalizer: a bijective mix that spreads weak low
// bits (FNV's, a counter's) across the word.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitMix64 is the splitmix64 generator (Steele, Lea, Flood 2014); State
// is the seed.
type SplitMix64 struct{ State uint64 }

// Next returns the next 64 bits of the stream.
func (s *SplitMix64) Next() uint64 {
	s.State += 0x9e3779b97f4a7c15
	return Mix64(s.State)
}

// Intn returns a value in [0, n). n must be positive.
func (s *SplitMix64) Intn(n int) int {
	return int(s.Next() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (s *SplitMix64) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}
