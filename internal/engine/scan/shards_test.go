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
	"github.com/joda-explore/betze/internal/query"
)

// The tests below pin scan.Shards in the two ways the sims use it, and are
// named after them: FilterShards is the parallel, result-collecting use
// (Workers >= 1, per-shard slots concatenated — jodasim), StreamShards the
// sequential one (Workers < 1, a body that mutates unlocked state —
// mongosim, pgsim). The properties that hold in both run over one table,
// layouts.

// layout is one row of that table: a worker count, a store cut into shards
// of the given sizes, and which shards' zone maps prove them empty.
type layout struct {
	workers int
	sizes   []int
	skip    []bool
}

func (l layout) String() string {
	return fmt.Sprintf("workers=%d sizes=%v skip=%v", l.workers, l.sizes, l.skip)
}

// The pruning inputs of a layout: shard i's zone either has /x or provably
// lacks it, and the filter needs /x.
var needsX = query.Compile(query.Exists{Path: "/x"}).Prune

type stubZone struct{ hasX bool }

func (z stubZone) Summary(string) (query.PathSummary, bool) { return query.PathSummary{}, z.hasX }
func (z stubZone) Complete() bool                           { return true }

func (l layout) zone(i int) (query.Zone, int) { return stubZone{hasX: !l.skip[i]}, l.sizes[i] }

// layouts crosses workers 0/1/2/8 with random shard cuts — empty shards,
// single-item shards and a short tail included — and random skip sets, from
// none (the adaptive pruner deactivates past its probes) to all.
func layouts() []layout {
	r := rand.New(rand.NewSource(81))
	var out []layout
	for _, workers := range []int{0, 1, 2, 8} {
		for _, shards := range []int{0, 1, 3, 40, 130} {
			for _, skipRate := range []float64{0, 0.05, 0.5, 1} {
				l := layout{workers: workers, sizes: make([]int, shards), skip: make([]bool, shards)}
				for i := range l.sizes {
					l.sizes[i] = r.Intn(4) * r.Intn(6) // 0 about half the time, at most 15
					l.skip[i] = r.Float64() < skipRate
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

// reference is the loop every pruning sim used to assemble by hand: one
// adaptive pruner, shards in order. It returns the shards to visit and the
// item count of the rest.
func (l layout) reference() (visit []int, skippedItems int64) {
	pruner := query.NewAdaptivePruner(needsX, len(l.sizes), func(i int) query.Zone {
		z, _ := l.zone(i)
		return z
	})
	for i, size := range l.sizes {
		if z, _ := l.zone(i); pruner.CanSkip(i, z) {
			skippedItems += int64(size)
		} else {
			visit = append(visit, i)
		}
	}
	return visit, skippedItems
}

// run walks the layout once. Item j of shard i is the number i*100+j; the
// body keeps the multiples of three in the shard's slot.
type run struct {
	visits  []atomic.Int32 // body calls per shard
	kept    []int          // the slots, concatenated
	skipped int64
	workers []atomic.Int32 // body calls in flight per worker index
	badIdx  atomic.Int64   // 1 + a worker index outside the range, or 0
	shared  atomic.Bool    // two body calls ran under one worker index at once
}

func (l layout) run(t *testing.T, ctx context.Context) *run {
	t.Helper()
	r := &run{visits: make([]atomic.Int32, len(l.sizes)), workers: make([]atomic.Int32, max(l.workers, 1))}
	slots := make([][]int, len(l.sizes))
	var err error
	r.skipped, err = scan.Shards(ctx, scan.Options{Workers: l.workers, Engine: "test"}, len(l.sizes), needsX, l.zone,
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
		visit, _ := l.reference()
		var want []int
		for _, i := range visit {
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

// TestFilterShardsSkippedItemCount: the walk skips exactly the shards the
// hand-assembled pruner loop skips — summing their item counts without
// opening them — and hands every other shard to body exactly once.
func TestFilterShardsSkippedItemCount(t *testing.T) {
	for _, l := range layouts() {
		visit, wantSkipped := l.reference()
		r := l.run(t, context.Background())
		if r.skipped != wantSkipped {
			t.Errorf("%v: skipped %d items, want %d", l, r.skipped, wantSkipped)
		}
		for i := range r.visits {
			want := int32(0)
			if slices.Contains(visit, i) {
				want = 1
			}
			if got := r.visits[i].Load(); got != want {
				t.Errorf("%v: shard %d handed to body %d times, want %d", l, i, got, want)
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
		_, err := scan.Shards(context.Background(), scan.Options{Workers: 8}, 32, query.Prune{}, nil,
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
// shard order, worker 0 — so a body may append to an unlocked slice.
func TestStreamShardsSkipsAndCounts(t *testing.T) {
	for _, l := range layouts() {
		if l.workers != 0 {
			continue
		}
		var walked []int
		skipped, err := scan.Shards(context.Background(), scan.Options{}, len(l.sizes), needsX, l.zone,
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
		visit, wantSkipped := l.reference()
		if !slices.Equal(walked, visit) || skipped != wantSkipped {
			t.Errorf("%v: walked %v skipping %d items, want %v and %d", l, walked, skipped, visit, wantSkipped)
		}
	}
}

func TestStreamShardsStopsOnBodyError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := scan.Shards(context.Background(), scan.Options{}, 10, query.Prune{}, nil,
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

	// Ten shards of ten, the first four skippable: every probe runs (4 of
	// the 4-shard prefix skip, so pruning stays active) and 6 are walked.
	par := layout{workers: 2, sizes: make([]int, 10), skip: make([]bool, 10)}
	for i := range par.sizes {
		par.sizes[i], par.skip[i] = 10, i < 4
	}
	par.run(t, ctx)
	// Five shards of ten, the first skippable, on the calling goroutine.
	seq := layout{workers: 0, sizes: []int{10, 10, 10, 10, 10}, skip: []bool{true, false, false, false, false}}
	seq.run(t, ctx)

	for metric, want := range map[string]int64{
		obs.MScanShardsScanned: 10,
		obs.MScanShardsSkipped: 5,
		obs.MScanItems:         100, // 60 parallel + 40 sequential
		obs.MScanBatches:       15,  // one claim per shard, skipped or not
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
	if e := events[0]; e.Type != obs.EvScan || e.Kind != obs.KindParallel || e.Engine != "test" || e.Scanned != 60 || e.Skipped != 4 || e.Workers != 2 {
		t.Errorf("parallel event = %+v", e)
	}
	if e := events[1]; e.Type != obs.EvScan || e.Kind != obs.KindSequential || e.Engine != "test" || e.Scanned != 40 || e.Skipped != 1 || e.Workers != 1 {
		t.Errorf("sequential event = %+v", e)
	}
}

// TestFilterShardsConcurrentCancelMidShard is the race-detector exercise:
// several walks run concurrently, parallel and sequential, each cancelled
// from inside a body call while other shards are being skipped. The cancel
// lands at shard granularity: the walk ends with context.Canceled at its
// next claim, which on a sequential walk means no further body call.
func TestFilterShardsConcurrentCancelMidShard(t *testing.T) {
	l := layout{sizes: make([]int, 400), skip: make([]bool, 400)}
	for i := range l.sizes {
		l.sizes[i], l.skip[i] = 5, i%7 == 3
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
			_, err := scan.Shards(ctx, scan.Options{Workers: workers}, len(l.sizes), needsX, l.zone,
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
