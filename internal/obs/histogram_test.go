package obs

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistogramQuantileErrorBound is the property behind the bucket layout:
// with 16 linear sub-buckets per octave the covering bucket of any value v
// is at most v/16 wide (plus the 1µs resolution floor), so a quantile
// estimate may deviate from the exact order statistic by at most that
// bucket width. Checked across seeds and three distribution shapes.
func TestHistogramQuantileErrorBound(t *testing.T) {
	shapes := map[string]func(r *rand.Rand) time.Duration{
		"exponential": func(r *rand.Rand) time.Duration {
			return time.Duration(r.ExpFloat64() * float64(5*time.Millisecond))
		},
		"lognormal-ish": func(r *rand.Rand) time.Duration {
			d := time.Duration(int64(time.Microsecond) << uint(r.Intn(20)))
			return d + time.Duration(r.Int63n(int64(d)+1))
		},
		"heavy-tail": func(r *rand.Rand) time.Duration {
			if r.Intn(100) == 0 {
				return time.Duration(1+r.Int63n(10)) * time.Second
			}
			return time.Duration(100+r.Int63n(900)) * time.Microsecond
		},
	}
	for name, gen := range shapes {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				r := rand.New(rand.NewSource(seed))
				h := &Histogram{}
				samples := make([]time.Duration, 5000)
				for i := range samples {
					samples[i] = gen(r)
					h.Record(samples[i])
				}
				sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
				for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
					exact := samples[int(q*float64(len(samples)-1))]
					got := h.Quantile(q)
					// One bucket width of the covering octave, one more for
					// the off-by-one between rank conventions, plus the 1µs
					// resolution floor.
					tol := 2*float64(exact)/histSub + float64(2*time.Microsecond)
					if d := absDelta(got, exact); d > tol {
						t.Errorf("seed %d q%g = %v, exact %v, |err| %v > tol %v",
							seed, q, got, exact, time.Duration(d), time.Duration(tol))
					}
				}
			}
		})
	}
}

// TestHistogramMergeCommutesAndAssociates: merging per-shard histograms
// must be order- and grouping-independent, and must equal one shared
// histogram fed every sample.
func TestHistogramMergeCommutesAndAssociates(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	parts := make([]*Histogram, 4)
	shared := &Histogram{}
	for i := range parts {
		parts[i] = &Histogram{}
		for n := 0; n < 2000+i*37; n++ {
			d := time.Duration(r.Int63n(int64(20 * time.Millisecond)))
			parts[i].Record(d)
			shared.Record(d)
		}
	}
	mergeAll := func(order []int, pairwise bool) HistogramSnapshot {
		acc := &Histogram{}
		if pairwise {
			// ((a+b)+(c+d)): build two intermediates, merge those.
			left, right := &Histogram{}, &Histogram{}
			left.Merge(parts[order[0]])
			left.Merge(parts[order[1]])
			right.Merge(parts[order[2]])
			right.Merge(parts[order[3]])
			acc.Merge(left)
			acc.Merge(right)
			return acc.Snapshot()
		}
		for _, i := range order {
			acc.Merge(parts[i])
		}
		return acc.Snapshot()
	}
	want := shared.Snapshot()
	for _, tc := range []struct {
		name     string
		order    []int
		pairwise bool
	}{
		{"forward", []int{0, 1, 2, 3}, false},
		{"reverse", []int{3, 2, 1, 0}, false},
		{"shuffled", []int{2, 0, 3, 1}, false},
		{"pairwise", []int{0, 1, 2, 3}, true},
	} {
		if got := mergeAll(tc.order, tc.pairwise); got != want {
			t.Errorf("%s merge = %+v, want %+v", tc.name, got, want)
		}
	}
}

// TestHistogramConcurrentRecord hammers one histogram from many goroutines
// (run under -race via make race-service); the merged totals must be exact
// at quiescence and min/max must be the true extremes.
func TestHistogramConcurrentRecord(t *testing.T) {
	h := &Histogram{}
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Record(time.Duration(w*perWorker+i+1) * time.Microsecond)
				if i%500 == 0 {
					_ = h.Snapshot() // concurrent readers
					_ = h.Quantile(0.99)
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Errorf("count = %d, want %d", s.Count, workers*perWorker)
	}
	n := int64(workers * perWorker)
	wantSum := time.Duration(n*(n+1)/2) * time.Microsecond
	if s.Sum != wantSum {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
	if s.Min != time.Microsecond || s.Max != time.Duration(n)*time.Microsecond {
		t.Errorf("extremes %v/%v, want %v/%v", s.Min, s.Max, time.Microsecond, time.Duration(n)*time.Microsecond)
	}
}

// TestRecordZeroAlloc is the allocation gate on the metrics hot path:
// counter increments and histogram records (both direct and through the
// registry's lock-free lookup) must not allocate.
func TestRecordZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	c := reg.Counter("ops")
	h.Record(time.Millisecond) // install cells outside the measured window
	c.Inc()
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(42 * time.Microsecond)
	}); n != 0 {
		t.Errorf("Histogram.Record allocates %.1f per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(3)
	}); n != 0 {
		t.Errorf("Counter.Add allocates %.1f per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		reg.Counter("ops").Inc()
		reg.Histogram("lat").Record(time.Microsecond)
	}); n != 0 {
		t.Errorf("registry lookup + record allocates %.1f per call", n)
	}
}

// mutexHistogram is the pre-rework baseline the benchmarks compare against:
// every sample serialised behind one mutex (the shape registry.go and
// histogram.go had before the sharded cells).
type mutexHistogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	buckets [histBuckets]int64
}

func (h *mutexHistogram) Observe(d time.Duration) {
	idx := bucketIndex(d.Microseconds())
	h.mu.Lock()
	h.count++
	h.sum += d
	h.buckets[idx]++
	h.mu.Unlock()
}

type mutexCounter struct {
	mu sync.Mutex
	v  int64
}

func (c *mutexCounter) Add(n int64) {
	c.mu.Lock()
	c.v += n
	c.mu.Unlock()
}

// The ≥5x-at-8-goroutines acceptance comparison: run with
//
//	go test -bench 'Record|CounterAdd' -cpu 8 ./internal/obs/
func BenchmarkHistogramRecord(b *testing.B) {
	h := &Histogram{}
	b.RunParallel(func(pb *testing.PB) {
		d := time.Duration(runtime.NumCPU()) * time.Microsecond
		for pb.Next() {
			h.Record(d)
		}
	})
}

func BenchmarkHistogramRecordMutexBaseline(b *testing.B) {
	h := &mutexHistogram{}
	b.RunParallel(func(pb *testing.PB) {
		d := time.Duration(runtime.NumCPU()) * time.Microsecond
		for pb.Next() {
			h.Observe(d)
		}
	})
}

func BenchmarkCounterAdd(b *testing.B) {
	c := &Counter{}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}

func BenchmarkCounterAddMutexBaseline(b *testing.B) {
	c := &mutexCounter{}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(1)
		}
	})
}
