package jsonstats

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramFractionLEUniform(t *testing.T) {
	h := NewHistogram(16)
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i % 100))
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{-1, 0}, {0, 0}, {25, 0.25}, {50, 0.5}, {75, 0.75}, {99, 1}, {200, 1},
	}
	for _, c := range cases {
		got := h.FractionLE(c.x)
		if math.Abs(got-c.want) > 0.08 {
			t.Errorf("FractionLE(%g) = %.3f, want ~%.2f", c.x, got, c.want)
		}
	}
}

func TestHistogramQuantileInvertsFraction(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	h := NewHistogram(32)
	for i := 0; i < 20000; i++ {
		h.Observe(r.NormFloat64() * 10)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		v := h.Quantile(q)
		back := h.FractionLE(v)
		if math.Abs(back-q) > 0.05 {
			t.Errorf("FractionLE(Quantile(%g)) = %.3f", q, back)
		}
	}
	if h.Quantile(0) != h.Lo() || h.Quantile(1) != h.Hi() {
		t.Errorf("extreme quantiles not at bounds")
	}
}

func TestHistogramCapturesSkew(t *testing.T) {
	// 90% of values at the bottom of the range, 10% spread high: the
	// uniform assumption would put the median mid-range; the histogram
	// must place it low.
	r := rand.New(rand.NewSource(5))
	h := NewHistogram(16)
	for i := 0; i < 10000; i++ {
		if r.Float64() < 0.9 {
			h.Observe(r.Float64() * 10) // [0, 10)
		} else {
			h.Observe(10 + r.Float64()*990) // [10, 1000)
		}
	}
	median := h.Quantile(0.5)
	if median > 100 {
		t.Errorf("median estimate %.1f ignores the skew (uniform would give ~500)", median)
	}
	if got := h.FractionLE(10); math.Abs(got-0.9) > 0.1 {
		t.Errorf("FractionLE(10) = %.3f, want ~0.9", got)
	}
}

func TestHistogramSmallSamples(t *testing.T) {
	h := NewHistogram(8)
	for _, v := range []float64{1, 2, 3} {
		h.Observe(v)
	}
	if h.Total != 3 {
		t.Errorf("Total = %d", h.Total)
	}
	if q := h.Quantile(0.5); q < 1 || q > 3 {
		t.Errorf("median of {1,2,3} = %g", q)
	}
	empty := NewHistogram(8)
	if empty.FractionLE(5) != 0 {
		t.Errorf("empty FractionLE != 0")
	}
	if empty.Quantile(0.5) != 0 {
		t.Errorf("empty Quantile = %g", empty.Quantile(0.5))
	}
}

func TestHistogramIgnoresNonFinite(t *testing.T) {
	h := NewHistogram(8)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(5)
	if h.Total != 1 {
		t.Errorf("non-finite values counted: %d", h.Total)
	}
}

func TestHistogramScale(t *testing.T) {
	h := NewHistogram(8)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i))
	}
	half := h.Scale(0.5)
	if half.Total < 400 || half.Total > 600 {
		t.Errorf("scaled total = %d", half.Total)
	}
	if h.Total != 1000 {
		t.Errorf("source histogram mutated: %d", h.Total)
	}
	if math.Abs(half.Quantile(0.5)-h.Quantile(0.5)) > 150 {
		t.Errorf("scaling shifted the median: %g vs %g", half.Quantile(0.5), h.Quantile(0.5))
	}
}

func TestHistogramSnapshotRoundTrip(t *testing.T) {
	h := NewHistogram(16)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		h.Observe(r.ExpFloat64() * 20)
	}
	bounds, counts, total := h.Snapshot()
	back := FromSnapshot(bounds, counts, total)
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if back.Quantile(q) != h.Quantile(q) {
			t.Errorf("quantile %g differs after snapshot round trip", q)
		}
	}
}

func TestDatasetHistogramsEndToEnd(t *testing.T) {
	d := NewDataset("d", DefaultConfig())
	for i := 0; i < 2000; i++ {
		d.AddDocument(doc(t, `{"n":`+itoa(i%100)+`}`))
	}
	ps := d.Paths["/n"]
	if ps.NumHist == nil || ps.NumHist.Total != 2000 {
		t.Fatalf("histogram not collected: %+v", ps.NumHist)
	}
	if med := ps.NumHist.Quantile(0.5); med < 35 || med > 65 {
		t.Errorf("median = %g", med)
	}
	// Disabled via config.
	off := NewDataset("d", Config{HistogramBuckets: -1})
	off.AddDocument(doc(t, `{"n":1}`))
	if off.Paths["/n"].NumHist != nil {
		t.Errorf("histogram collected despite negative bucket config")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
