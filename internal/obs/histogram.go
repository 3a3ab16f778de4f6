package obs

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is HDR-style log-linear: values below histSub are exact;
// above that, each power of two is split into histSub linear sub-buckets,
// bounding the relative quantile error at 1/histSub (~6%) across the whole
// uint64 range while keeping the bucket array small and index computation
// branch-light (a bit-length plus shift/mask — no floating point, no loop).
const (
	// histSub is the number of linear sub-buckets per power of two.
	// Must be a power of two; histSubBits is its log2.
	histSub     = 16
	histSubBits = 4
	// histBuckets covers the full uint64 range: buckets 0..15 are exact,
	// then one histSub-wide block per exponent 4..63 (top index
	// (63-histSubBits+1)*histSub + histSub-1 = 975).
	histBuckets = (63 - histSubBits + 2) * histSub
)

// bucketIndex maps a value to its bucket. Exact for v < histSub; above,
// index = (exp-histSubBits+1)*histSub + sub where exp is the top bit
// position and sub the next histSubBits bits.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // >= histSubBits
	sub := int((v >> uint(exp-histSubBits)) & (histSub - 1))
	return (exp-histSubBits+1)*histSub + sub
}

// bucketLow returns the smallest value mapping to bucket i — the
// representative reported by Quantile, chosen over the midpoint so that
// quantiles are exact bucket boundaries and monotone by construction.
func bucketLow(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	exp := i/histSub - 1 + histSubBits
	sub := uint64(i % histSub)
	return (histSub + sub) << uint(exp-histSubBits)
}

// Histogram is a fixed-size log-linear histogram safe for concurrent
// Record and Snapshot (all state is atomic; a snapshot taken during
// concurrent writes is a consistent-enough view: each bucket is read
// once, monotone, and never torn). The zero value is NOT ready — use
// NewHistogram or Registry.Histogram — but all methods are nil-safe.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // integer sum of recorded values
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Record adds one observation. No-op on nil.
func (h *Histogram) Record(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// RecordDur records a duration in microseconds (the natural unit for
// spans and scrape-facing latency summaries). Sub-microsecond durations
// land in bucket 0. No-op on nil.
func (h *Histogram) RecordDur(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d / time.Microsecond))
}

// Merge adds o's observations into h (bucket-wise). Merging is
// equivalent to having recorded both observation streams into one
// histogram — the property the merge test pins. No-op when either side
// is nil.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the integer sum of recorded values (0 on nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Reset zeroes the histogram so it can be reused without reallocating its
// ~8KB bucket array (the detect baseline store recycles generation
// histograms this way). It must not run concurrently with writers — a
// Record racing a Reset can leave count and buckets inconsistent. No-op
// on nil.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// HistBucket is one occupied bucket of a dumped histogram.
type HistBucket struct {
	// Index is the bucket's position in the log-linear layout (see
	// bucketIndex); Count its occupancy.
	Index int    `json:"i"`
	Count uint64 `json:"n"`
}

// HistDump is an exact, sparse export of a histogram's state: only
// occupied buckets, in index order. Load on a fresh histogram reproduces
// the original bucket-for-bucket — the property the detect baseline
// handoff depends on (quantiles, counts, and sums all survive a
// dump/load round trip bit-exactly). JSON-friendly by design: handoff
// frames carry it inside the detector snapshot.
type HistDump struct {
	Sum     uint64       `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Dump exports the histogram's occupied buckets in index order. Like
// Snapshot, the count is recomputed from bucket occupancy so the dump is
// internally consistent even under concurrent Records. Nil dumps empty.
func (h *Histogram) Dump() HistDump {
	var d HistDump
	if h == nil {
		return d
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			d.Buckets = append(d.Buckets, HistBucket{Index: i, Count: n})
		}
	}
	d.Sum = h.sum.Load()
	return d
}

// Load resets h and installs a dump, validating it first: bucket indices
// must be strictly increasing and in range, occupancies non-zero, and the
// total count must not overflow — the dump may have crossed a network.
// Must not run concurrently with writers (same contract as Reset).
func (h *Histogram) Load(d HistDump) error {
	if h == nil {
		return fmt.Errorf("obs: Load on nil histogram")
	}
	var total uint64
	last := -1
	for _, b := range d.Buckets {
		if b.Index <= last || b.Index >= histBuckets {
			return fmt.Errorf("obs: histogram dump bucket index %d invalid (previous %d, max %d)", b.Index, last, histBuckets-1)
		}
		if b.Count == 0 {
			return fmt.Errorf("obs: histogram dump bucket %d has zero count", b.Index)
		}
		if total+b.Count < total {
			return fmt.Errorf("obs: histogram dump count overflows")
		}
		total += b.Count
		last = b.Index
	}
	h.Reset()
	for _, b := range d.Buckets {
		h.buckets[b.Index].Store(b.Count)
	}
	h.count.Store(total)
	h.sum.Store(d.Sum)
	return nil
}

// Quantile returns the q-quantile (q in [0,1]) of the live histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	s := h.Snapshot()
	return s.Quantile(q)
}

// Local is an unsynchronized accumulator for batch publication: a hot
// loop Records into it with plain increments (no atomics, no sharing)
// and flushes the whole batch into a shared Histogram with one MergeLocal
// call — turning N× three atomic RMWs into one bounded merge pass. This
// is what keeps per-item instrumentation of a 2000-item integration pass
// inside its <3% overhead budget. The zero value
// is ready to use; Local must not be shared between goroutines.
type Local struct {
	count   uint64
	sum     uint64
	buckets [histBuckets]uint64
}

// Record adds one observation to the local batch.
func (l *Local) Record(v uint64) {
	l.buckets[bucketIndex(v)]++
	l.count++
	l.sum += v
}

// MergeLocal adds a local batch into h, observation-equivalent to having
// Recorded each value directly. No-op when h or l is nil or l is empty.
func (h *Histogram) MergeLocal(l *Local) {
	if h == nil || l == nil || l.count == 0 {
		return
	}
	for i := range l.buckets {
		if n := l.buckets[i]; n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(l.count)
	h.sum.Add(l.sum)
}

// HistSnapshot is a point-in-time copy of a histogram, cheap to query
// repeatedly without touching the live atomics.
type HistSnapshot struct {
	Count   uint64
	Sum     float64
	buckets [histBuckets]uint64
}

// Snapshot copies the current state. On nil it returns an empty snapshot.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	// Bucket occupancy is read first and the total recomputed from it, so
	// the quantile walk is internally consistent even if Records land
	// between the loads (count/sum are reported as-read; only the
	// quantiles need exact internal agreement).
	var total uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.buckets[i] = n
		total += n
	}
	s.Count = total
	s.Sum = float64(h.sum.Load())
	return s
}

// Quantile returns the value at or below which a q fraction of the
// observations fall, reported as the lower bound of the containing
// bucket (relative error ≤ 1/histSub). q is clamped to [0,1]; an empty
// snapshot reports 0.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := uint64(q*float64(s.Count-1)) + 1
	var seen uint64
	for i := range s.buckets {
		seen += s.buckets[i]
		if seen >= rank {
			return float64(bucketLow(i))
		}
	}
	// Unreachable when Count > 0; keep the compiler and the reader calm.
	return float64(bucketLow(histBuckets - 1))
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s *HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}
