package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// LatencyBuckets returns the default bucket bounds (seconds) for flow-setup
// latency histograms: log-spaced from 10µs to 10s, six buckets per decade.
// The range spans a quiet direct-path flow setup (~100µs) up to the
// multi-second Packet-In queueing delays of a saturated OFA.
func LatencyBuckets() []float64 {
	var b []float64
	for e := -5; e < 1; e++ {
		decade := math.Pow(10, float64(e))
		for _, m := range []float64{1, 1.5, 2.2, 3.3, 4.7, 6.8} {
			b = append(b, m*decade)
		}
	}
	return append(b, 10)
}

// BucketHistogram is a fixed-bucket histogram with atomic counters, modeled
// on the tracking histograms of load-test drivers: writers on the hot path
// pay two atomic adds, readers estimate quantiles from the bucket counts
// without ever locking writers out. Unlike Histogram it never stores raw
// samples, so a million-flow scenario costs a fixed few hundred bytes per
// tenant regardless of flow count. It is also the histogram handle
// telemetry.Registry returns and scrapes.
//
// Bounds are upper bucket edges in ascending order; a sample lands in the
// first bucket whose bound is >= the value, or in the implicit overflow
// bucket past the last bound. Observe is safe for concurrent use with
// itself and with every read method.
type BucketHistogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	total   atomic.Uint64
	sumBits atomic.Uint64
}

// NewBucketHistogram returns a histogram with the given bounds (a private
// copy is taken). Nil or empty bounds select LatencyBuckets. It panics if
// bounds are not strictly ascending or not finite.
func NewBucketHistogram(bounds []float64) *BucketHistogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets()
	}
	b := append([]float64(nil), bounds...)
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			panic("metrics: non-finite bucket bound")
		}
		if i > 0 && v <= b[i-1] {
			panic("metrics: bucket bounds not strictly ascending")
		}
	}
	return &BucketHistogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample. Nil-safe: a nil histogram (the handle a
// disabled telemetry registry returns) records nothing.
func (h *BucketHistogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration sample in seconds.
func (h *BucketHistogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples, including overflowed ones (0 for
// nil).
func (h *BucketHistogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *BucketHistogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the sample mean, or 0 with no samples.
func (h *BucketHistogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Bounds returns the bucket upper bounds (not a copy; do not mutate).
func (h *BucketHistogram) Bounds() []float64 { return h.bounds }

// Counts returns a point-in-time copy of the per-bucket counts; the last
// entry is the overflow bucket.
func (h *BucketHistogram) Counts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Overflow returns the number of samples past the last bound.
func (h *BucketHistogram) Overflow() uint64 {
	return h.counts[len(h.counts)-1].Load()
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the bucket holding the target rank; the first bucket interpolates
// from zero (bounds here are nonnegative latencies). Samples in the
// overflow bucket are clamped to the last bound, so quantiles never
// extrapolate past the histogram's range. Returns 0 with no samples.
func (h *BucketHistogram) Quantile(q float64) float64 {
	return QuantileFromCounts(h.bounds, h.Counts(), q)
}

// QuantileFromCounts estimates the q-quantile from a per-bucket count
// vector over the given bounds, with the same interpolation and
// overflow-clamp rules as BucketHistogram.Quantile. counts may have
// len(bounds) or len(bounds)+1 entries; a final extra entry is the
// overflow bucket. It is the building block for windowed quantiles: the
// caller differences two Counts() snapshots and asks for the quantile of
// the samples that arrived in between. Returns 0 with no samples.
func QuantileFromCounts(bounds []float64, counts []uint64, q float64) float64 {
	if len(bounds) == 0 {
		return 0
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: clamp to the largest bound.
			return bounds[len(bounds)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		upper := bounds[i]
		return lower + (upper-lower)*(rank-prev)/float64(c)
	}
	return bounds[len(bounds)-1]
}

// Merge adds every bucket of o into h (for aggregating per-tenant or
// per-shard histograms). The two histograms must share identical bounds.
func (h *BucketHistogram) Merge(o *BucketHistogram) error {
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("metrics: merge of mismatched histograms (%d vs %d buckets)",
			len(h.bounds), len(o.bounds))
	}
	for i, b := range h.bounds {
		if b != o.bounds[i] {
			return fmt.Errorf("metrics: merge of mismatched histograms (bound %d: %v vs %v)",
				i, b, o.bounds[i])
		}
	}
	for i := range o.counts {
		if n := o.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
			h.total.Add(n)
		}
	}
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + o.Sum())
		if h.sumBits.CompareAndSwap(old, next) {
			return nil
		}
	}
}

// String summarizes the distribution.
func (h *BucketHistogram) String() string {
	return fmt.Sprintf("n=%d mean=%.6f p50=%.6f p99=%.6f overflow=%d",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Overflow())
}
