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
					h.Observe(samples[i])
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

// TestHistogramConcurrentRecord hammers one histogram from many goroutines
// (run under -race via make race-service). Every snapshot taken mid-run must
// be internally consistent — it reads one instant, so its quantiles and mean
// lie between its own extremes — and at quiescence the totals must be exact
// and min/max the true extremes.
func TestHistogramConcurrentRecord(t *testing.T) {
	h := &Histogram{}
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w*perWorker+i+1) * time.Microsecond)
				if i%500 == 0 {
					checkConsistent(t, h.Snapshot())
					_ = h.Quantile(0.99)
				}
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	checkConsistent(t, s)
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

// checkConsistent reports a non-empty snapshot whose summary statistics do
// not order between its own extremes.
func checkConsistent(t *testing.T, s HistogramSnapshot) {
	t.Helper()
	if s.Count == 0 {
		return
	}
	if !(s.Min <= s.P50 && s.P50 <= s.P99 && s.P99 <= s.Max) || !(s.Min <= s.Mean && s.Mean <= s.Max) {
		t.Errorf("inconsistent snapshot: %+v", s)
	}
}

// TestRecordZeroAlloc is the allocation gate on the metrics write path:
// counter increments and histogram observations (both direct and through a
// registry lookup) must not allocate.
func TestRecordZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	c := reg.Counter("ops")
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(42 * time.Microsecond)
	}); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		c.Add(3)
	}); n != 0 {
		t.Errorf("Counter.Add allocates %.1f per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		reg.Counter("ops").Inc()
		reg.Histogram("lat").Observe(time.Microsecond)
	}); n != 0 {
		t.Errorf("registry lookup + observe allocates %.1f per call", n)
	}
}

// The write-path cost under parallel writers:
//
//	go test -bench 'Observe|CounterAdd' -cpu 1,2,8 ./internal/obs/
func BenchmarkHistogramObserve(b *testing.B) {
	h := &Histogram{}
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
