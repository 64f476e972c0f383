package obs

import (
	"math/bits"
	"sync"
	"time"
)

// Histogram is a streaming duration histogram with HDR-style log-linear
// buckets: microsecond resolution below 16µs, then 16 linear sub-buckets
// per power of two, giving a worst-case relative quantile error of about
// 1/16 ≈ 6% across the full time.Duration range — good enough to read p99s
// off a benchmark run without pre-declaring bucket bounds.
//
// One mutex guards the whole state, so Observe is allocation-free and a
// Snapshot reads one instant: its count, extremes and quantiles always
// agree with each other. Samples arrive per query, per scan pass or per
// campaign — never per document — so the lock is never hot. The zero value
// is ready to use.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64 // nanoseconds
	min     int64 // nanoseconds; meaningful only when count > 0
	max     int64 // nanoseconds; meaningful only when count > 0
	buckets [histBuckets]int64
}

const (
	histSubBits = 4
	histSub     = 1 << histSubBits // linear sub-buckets per octave
	// histBuckets covers every representable microsecond count: a
	// non-negative int64 has at most 63 bits, so octaves histSubBits..62
	// (plus the linear run below histSub) need this many buckets.
	histBuckets = histSub + (63-histSubBits)*histSub
)

// bucketIndex maps a microsecond value to its bucket.
func bucketIndex(us int64) int {
	if us < 0 {
		us = 0
	}
	v := uint64(us)
	if v < histSub {
		return int(v)
	}
	octave := bits.Len64(v) - 1 // 2^octave <= v < 2^(octave+1)
	sub := (v >> (uint(octave) - histSubBits)) & (histSub - 1)
	return histSub + (octave-histSubBits)*histSub + int(sub)
}

// bucketBounds returns the inclusive lower bound and width of a bucket, in
// microseconds.
func bucketBounds(idx int) (lo, width int64) {
	if idx < histSub {
		return int64(idx), 1
	}
	k := idx - histSub
	octave := histSubBits + k/histSub
	sub := k % histSub
	width = int64(1) << (octave - histSubBits)
	lo = int64(1)<<octave + int64(sub)*width
	return lo, width
}

// Observe folds one duration into the histogram.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	idx := bucketIndex(ns / int64(time.Microsecond))
	h.mu.Lock()
	if h.count == 0 || ns < h.min {
		h.min = ns
	}
	if h.count == 0 || ns > h.max {
		h.max = ns
	}
	h.count++
	h.sum += ns
	h.buckets[idx]++
	h.mu.Unlock()
}

// quantile estimates the q-th quantile by linear interpolation within the
// covering bucket, clamped to the exact observed min/max. The caller holds
// h.mu.
func (h *Histogram) quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return time.Duration(h.min)
	}
	if q >= 1 {
		return time.Duration(h.max)
	}
	rank := q * float64(h.count)
	var cum float64
	for idx, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo, width := bucketBounds(idx)
			frac := (rank - cum) / float64(n)
			us := float64(lo) + frac*float64(width)
			d := time.Duration(us * float64(time.Microsecond))
			return min(max(d, time.Duration(h.min)), time.Duration(h.max))
		}
		cum = next
	}
	return time.Duration(h.max)
}

// Quantile estimates the q-th quantile (0 <= q <= 1). Returns 0 for an
// empty histogram.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantile(q)
}

// HistogramSnapshot is the exportable summary of a histogram.
type HistogramSnapshot struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
}

// Snapshot summarises the histogram at one instant.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Count: h.count,
		Sum:   time.Duration(h.sum),
		Min:   time.Duration(h.min),
		Max:   time.Duration(h.max),
		Mean:  time.Duration(h.sum / h.count),
		P50:   h.quantile(0.5),
		P90:   h.quantile(0.9),
		P99:   h.quantile(0.99),
		P999:  h.quantile(0.999),
	}
}
