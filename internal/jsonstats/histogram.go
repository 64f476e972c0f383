package jsonstats

import (
	"math"
	"sort"
)

// DefaultHistogramBuckets is the bucket count of numeric histograms.
const DefaultHistogramBuckets = 16

// histogramBuffer is how many values a histogram buffers before fixing its
// bucket boundaries.
const histogramBuffer = 256

// Histogram is a streaming equi-depth histogram over the numeric values of
// one path. The paper's future-work section proposes histograms "to capture
// the distribution of values and prevent wrong decisions due to skewed
// data"; the float-comparison factory consults them when present.
//
// Bucket boundaries are fixed at the quantiles of a buffered sample —
// equi-depth, like PostgreSQL's pg_stats histogram_bounds — so heavily
// skewed distributions get fine resolution where the mass is. Later values
// fall into the fixed buckets (clamped at the edges); merging widens the
// receiving bounds and rebins the other side's mass at bucket midpoints,
// which keeps estimates within roughly one bucket of truth.
type Histogram struct {
	// Bounds holds the buckets+1 boundary values (valid once built).
	Bounds []float64
	// Counts holds per-bucket observation counts (len(Bounds)-1).
	Counts []int64
	// Total is the number of observed values.
	Total int64

	buckets int
	pending []float64
}

// NewHistogram returns an empty histogram with the given bucket count
// (0 means DefaultHistogramBuckets).
func NewHistogram(buckets int) *Histogram {
	if buckets <= 0 {
		buckets = DefaultHistogramBuckets
	}
	return &Histogram{buckets: buckets}
}

// Lo returns the lower bound of the value range (0 when empty).
func (h *Histogram) Lo() float64 {
	h.finalize()
	return h.Bounds[0]
}

// Hi returns the upper bound of the value range (0 when empty).
func (h *Histogram) Hi() float64 {
	h.finalize()
	return h.Bounds[len(h.Bounds)-1]
}

// Observe folds one value in.
func (h *Histogram) Observe(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return
	}
	h.Total++
	if h.Counts == nil {
		h.pending = append(h.pending, f)
		if len(h.pending) >= histogramBuffer {
			h.build()
		}
		return
	}
	h.Counts[h.bucket(f)]++
}

// build fixes equi-depth bucket boundaries from the buffered sample.
func (h *Histogram) build() {
	if h.Counts != nil {
		return
	}
	if h.buckets <= 0 {
		h.buckets = DefaultHistogramBuckets
	}
	sample := append([]float64(nil), h.pending...)
	sort.Float64s(sample)
	h.Bounds = make([]float64, h.buckets+1)
	if len(sample) == 0 {
		// Degenerate all-zero bounds; counts stay empty.
		h.Counts = make([]int64, h.buckets)
		h.pending = nil
		return
	}
	for i := 0; i <= h.buckets; i++ {
		idx := i * (len(sample) - 1) / h.buckets
		h.Bounds[i] = sample[idx]
	}
	h.Counts = make([]int64, h.buckets)
	for _, f := range sample {
		h.Counts[h.bucket(f)]++
	}
	h.pending = nil
}

// bucket maps a value to its bucket index, clamping out-of-range values
// into the edge buckets.
func (h *Histogram) bucket(f float64) int {
	n := len(h.Counts)
	// First bucket whose upper bound admits f.
	idx := sort.SearchFloat64s(h.Bounds[1:n], f)
	if idx >= n {
		return n - 1
	}
	return idx
}

// finalize makes the histogram queryable regardless of how few values were
// seen.
func (h *Histogram) finalize() {
	if h.Counts == nil {
		h.build()
	}
}

// FractionLE estimates the fraction of observed values <= x, interpolating
// linearly inside the containing bucket.
func (h *Histogram) FractionLE(x float64) float64 {
	h.finalize()
	if h.Total == 0 {
		return 0
	}
	if x < h.Bounds[0] {
		return 0
	}
	if x >= h.Bounds[len(h.Bounds)-1] {
		return 1
	}
	idx := h.bucket(x)
	var below int64
	for i := 0; i < idx; i++ {
		below += h.Counts[i]
	}
	lo, hi := h.Bounds[idx], h.Bounds[idx+1]
	frac := 1.0
	if hi > lo {
		frac = (x - lo) / (hi - lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
	}
	below += int64(math.Round(frac * float64(h.Counts[idx])))
	return float64(below) / float64(h.Total)
}

// Quantile returns the approximate value below which fraction q of the
// observations fall.
func (h *Histogram) Quantile(q float64) float64 {
	h.finalize()
	if h.Total == 0 {
		return h.Bounds[0]
	}
	if q <= 0 {
		return h.Bounds[0]
	}
	if q >= 1 {
		return h.Bounds[len(h.Bounds)-1]
	}
	target := q * float64(h.Total)
	var cum float64
	for i, c := range h.Counts {
		next := cum + float64(c)
		if next >= target {
			lo, hi := h.Bounds[i], h.Bounds[i+1]
			if c == 0 || hi <= lo {
				return lo
			}
			return lo + (target-cum)/float64(c)*(hi-lo)
		}
		cum = next
	}
	return h.Bounds[len(h.Bounds)-1]
}

// clone copies the histogram (pending buffer included).
func (h *Histogram) clone() *Histogram {
	c := &Histogram{Total: h.Total, buckets: h.buckets}
	if h.Bounds != nil {
		c.Bounds = append([]float64(nil), h.Bounds...)
	}
	if h.Counts != nil {
		c.Counts = append([]int64(nil), h.Counts...)
	}
	if h.pending != nil {
		c.pending = append([]float64(nil), h.pending...)
	}
	return c
}

// Snapshot finalizes the histogram and returns its serialisable state.
func (h *Histogram) Snapshot() (bounds []float64, counts []int64, total int64) {
	h.finalize()
	return append([]float64(nil), h.Bounds...), append([]int64(nil), h.Counts...), h.Total
}

// FromSnapshot rebuilds a histogram from its serialised state.
func FromSnapshot(bounds []float64, counts []int64, total int64) *Histogram {
	return &Histogram{Bounds: bounds, Counts: counts, Total: total, buckets: len(counts)}
}

// Scale returns a copy with counts scaled by the selectivity factor.
func (h *Histogram) Scale(f float64) *Histogram {
	c := h.clone()
	c.finalize()
	c.Total = 0
	for i, n := range c.Counts {
		c.Counts[i] = scaleCount(n, f)
		c.Total += c.Counts[i]
	}
	return c
}
