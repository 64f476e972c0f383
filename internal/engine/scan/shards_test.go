package scan_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/engine/scan"
	"github.com/joda-explore/betze/internal/obs"
)

// The tests below pin scan.Shards in the two ways the sims use it, and are
// named after them: FilterShards is the parallel, result-collecting use
// (Workers >= 1, per-shard slots concatenated — jodasim), StreamShards the
// sequential one (Workers < 1, a body that mutates unlocked state —
// mongosim, pgsim). The properties that hold in both run over one table,
// layouts.

// layout is one row of that table: a worker count and a store cut into
// shards of the given sizes.
type layout struct {
	workers int
	sizes   []int
}

func (l layout) String() string {
	return fmt.Sprintf("workers=%d sizes=%v", l.workers, l.sizes)
}

// layouts crosses workers 0/1/2/8 with random shard cuts — empty shards,
// single-item shards and a short tail included.
func layouts() []layout {
	r := rand.New(rand.NewSource(81))
	var out []layout
	for _, workers := range []int{0, 1, 2, 8} {
		for _, shards := range []int{0, 1, 3, 40, 130} {
			for range 4 {
				l := layout{workers: workers, sizes: make([]int, shards)}
				for i := range l.sizes {
					l.sizes[i] = r.Intn(4) * r.Intn(6) // 0 about half the time, at most 15
				}
				if shards > 0 {
					l.sizes[shards-1] = 1 // the short tail
				}
				out = append(out, l)
			}
		}
	}
	return out
}

// items is the layout's total item count.
func (l layout) items() (n int64) {
	for _, size := range l.sizes {
		n += int64(size)
	}
	return n
}

// run walks the layout once. Item j of shard i is the number i*100+j; the
// body keeps the multiples of three in the shard's slot.
type run struct {
	visits  []atomic.Int32 // body calls per shard
	kept    []int          // the slots, concatenated
	workers []atomic.Int32 // body calls in flight per worker index
	badIdx  atomic.Int64   // 1 + a worker index outside the range, or 0
	shared  atomic.Bool    // two body calls ran under one worker index at once
}

func (l layout) run(t *testing.T, ctx context.Context) *run {
	t.Helper()
	r := &run{visits: make([]atomic.Int32, len(l.sizes)), workers: make([]atomic.Int32, max(l.workers, 1))}
	slots := make([][]int, len(l.sizes))
	err := scan.Shards(ctx, scan.Options{Workers: l.workers, Engine: "test"}, len(l.sizes),
		func(w, i int) (int64, error) {
			if w < 0 || w >= len(r.workers) {
				r.badIdx.Store(int64(w) + 1)
				return 0, nil
			}
			if r.workers[w].Add(1) != 1 {
				r.shared.Store(true)
			}
			defer r.workers[w].Add(-1)
			r.visits[i].Add(1)
			for j := 0; j < l.sizes[i]; j++ {
				if v := i*100 + j; v%3 == 0 {
					slots[i] = append(slots[i], v)
				}
			}
			return int64(l.sizes[i]), nil
		})
	if err != nil {
		t.Fatalf("%v: %v", l, err)
	}
	r.kept = slices.Concat(slots...)
	return r
}

// TestFilterShardsChunkBoundaries: whatever the cut — one-item shards, empty
// ones, a short tail — and whatever the worker count, concatenating the
// per-shard slots gives the sequential reference result, in order.
func TestFilterShardsChunkBoundaries(t *testing.T) {
	for _, l := range layouts() {
		var want []int
		for i := range l.sizes {
			for j := 0; j < l.sizes[i]; j++ {
				if v := i*100 + j; v%3 == 0 {
					want = append(want, v)
				}
			}
		}
		if got := l.run(t, context.Background()).kept; !slices.Equal(got, want) {
			t.Errorf("%v: kept %v, the sequential walk keeps %v", l, got, want)
		}
	}
}

// TestFilterShardsSkippedItemCount: the walk skips nothing — it hands every
// shard to body exactly once, and the items it reports are the items of
// every shard.
func TestFilterShardsSkippedItemCount(t *testing.T) {
	for _, l := range layouts() {
		reg := obs.NewRegistry()
		r := l.run(t, obs.With(context.Background(), obs.Scope{Metrics: reg}))
		if got := reg.Counter(obs.MScanItems).Value(); got != l.items() {
			t.Errorf("%v: the walk reported %d items, the shards hold %d", l, got, l.items())
		}
		for i := range r.visits {
			if got := r.visits[i].Load(); got != 1 {
				t.Errorf("%v: shard %d handed to body %d times, want 1", l, i, got)
			}
		}
	}
}

// TestFilterShardsWorkerIndex pins the per-worker state contract: body's
// worker argument stays inside [0, max(Workers, 1)) and no two concurrent
// body calls share one, so callers can index per-worker state without locks.
func TestFilterShardsWorkerIndex(t *testing.T) {
	for _, l := range layouts() {
		r := l.run(t, context.Background())
		if b := r.badIdx.Load(); b != 0 {
			t.Errorf("%v: body saw worker index %d", l, b-1)
		}
		if r.shared.Load() {
			t.Errorf("%v: two concurrent body calls shared a worker index", l)
		}
	}
}

func TestFilterShardsReportsLowestIndexError(t *testing.T) {
	boom := errors.New("boom")
	for round := 0; round < 20; round++ {
		err := scan.Shards(context.Background(), scan.Options{Workers: 8}, 32,
			func(_, i int) (int64, error) {
				if i >= 5 { // shards 5+ all fail; lowest must win
					return 0, fmt.Errorf("shard %d: %w", i, boom)
				}
				return 1, nil
			})
		if !errors.Is(err, boom) || err.Error() != "shard 5: boom" {
			t.Fatalf("round %d: err = %v, want the lowest-index failure", round, err)
		}
	}
}

// TestStreamShardsSkipsAndCounts: without workers the walk is a plain loop —
// every shard, in shard order, on worker 0 — so a body may append to an
// unlocked slice.
func TestStreamShardsSkipsAndCounts(t *testing.T) {
	for _, l := range layouts() {
		if l.workers != 0 {
			continue
		}
		var walked, want []int
		err := scan.Shards(context.Background(), scan.Options{}, len(l.sizes),
			func(w, i int) (int64, error) {
				if w != 0 {
					t.Errorf("%v: sequential walk used worker %d", l, w)
				}
				walked = append(walked, i)
				return int64(l.sizes[i]), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		for i := range l.sizes {
			want = append(want, i)
		}
		if !slices.Equal(walked, want) {
			t.Errorf("%v: walked %v, want %v", l, walked, want)
		}
	}
}

func TestStreamShardsStopsOnBodyError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := scan.Shards(context.Background(), scan.Options{}, 10,
		func(_, i int) (int64, error) {
			calls++
			if i == 3 {
				return 0, boom
			}
			return 1, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 4 {
		t.Fatalf("body ran %d times after an error at shard 3", calls)
	}
}

// TestShardScansEmitObsVocabulary checks the walk's observability: the
// scan.* counters and one scan event per pass, kind parallel for
// Workers >= 1 and sequential otherwise.
func TestShardScansEmitObsVocabulary(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	rec.SetClock(func() time.Time { return time.Unix(0, 0) })
	ctx := obs.With(context.Background(), obs.Scope{Metrics: reg, Trace: rec})

	// Six shards of ten on two workers.
	par := layout{workers: 2, sizes: []int{10, 10, 10, 10, 10, 10}}
	par.run(t, ctx)
	// Four shards of ten on the calling goroutine.
	seq := layout{workers: 0, sizes: []int{10, 10, 10, 10}}
	seq.run(t, ctx)

	for metric, want := range map[string]int64{
		obs.MScanShardsScanned: 10,
		obs.MScanItems:         100, // 60 parallel + 40 sequential
		obs.MScanBatches:       10,  // one claim per shard
		obs.MScanWorkers:       3,
		obs.MScanCancels:       0,
	} {
		if got := reg.Counter(metric).Value(); got != want {
			t.Errorf("%s = %d, want %d", metric, got, want)
		}
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("recorded %d events, want one per walk", len(events))
	}
	if e := events[0]; e.Type != obs.EvScan || e.Kind != obs.KindParallel || e.Engine != "test" || e.Scanned != 60 || e.Workers != 2 {
		t.Errorf("parallel event = %+v", e)
	}
	if e := events[1]; e.Type != obs.EvScan || e.Kind != obs.KindSequential || e.Engine != "test" || e.Scanned != 40 || e.Workers != 1 {
		t.Errorf("sequential event = %+v", e)
	}
}

// TestFilterShardsConcurrentCancelMidShard is the race-detector exercise:
// several walks run concurrently, parallel and sequential, each cancelled
// from inside a body call while other shards are being walked. The cancel
// lands at shard granularity: the walk ends with context.Canceled at its
// next claim, which on a sequential walk means no further body call.
func TestFilterShardsConcurrentCancelMidShard(t *testing.T) {
	l := layout{sizes: make([]int, 400)}
	for i := range l.sizes {
		l.sizes[i] = 5
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			workers := []int{0, 4}[g%2]
			var calls atomic.Int64
			err := scan.Shards(ctx, scan.Options{Workers: workers}, len(l.sizes),
				func(_, i int) (int64, error) {
					if calls.Add(1) == int64(3+g) {
						cancel() // mid-shard: the next claim of every worker detects it
					}
					return int64(l.sizes[i]), nil
				})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("walk %d (workers=%d): err = %v, want context.Canceled", g, workers, err)
			}
			if workers == 0 && calls.Load() != int64(3+g) {
				t.Errorf("walk %d: %d body calls on a sequential walk cancelled inside call %d", g, calls.Load(), 3+g)
			}
		}(g)
	}
	wg.Wait()
}
