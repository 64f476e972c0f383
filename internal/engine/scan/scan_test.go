package scan_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/engine/scan"
	"github.com/joda-explore/betze/internal/obs"
)

func ints(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestPlanClampsWorkersToItems is the regression test for the worker-sizing
// bug the sims used to carry: more threads than documents must clamp to the
// document count, not collapse to a single-threaded scan.
func TestPlanClampsWorkersToItems(t *testing.T) {
	cases := []struct {
		o       scan.Options
		n       int
		workers int
		batch   int
	}{
		{scan.Options{Workers: 4}, 3, 3, 1},
		{scan.Options{Workers: 4, Batch: 10}, 3, 3, 1},
		{scan.Options{Workers: 4}, 100, 4, 25},
		{scan.Options{Workers: 4, Batch: 8}, 1000, 4, 8},
		{scan.Options{Workers: 0}, 10, 1, 10},
		{scan.Options{Workers: -3, Batch: 2}, 10, 1, 2},
		{scan.Options{Workers: 4}, 0, 1, scan.DefaultBatch},
		{scan.Options{}, 1 << 20, 1, scan.DefaultBatch},
	}
	for _, c := range cases {
		w, b := scan.Plan(c.o, c.n)
		if w != c.workers || b != c.batch {
			t.Errorf("Plan(%+v, %d) = (%d, %d), want (%d, %d)", c.o, c.n, w, b, c.workers, c.batch)
		}
	}
}

// TestFilterParallelizesSmallScan proves a 3-document scan under a 4-thread
// configuration really runs 3 workers concurrently: each keep call blocks at
// a rendezvous that only opens once all three are in flight.
func TestFilterParallelizesSmallScan(t *testing.T) {
	var wg sync.WaitGroup
	wg.Add(3)
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	out, err := scan.Filter(context.Background(), scan.Options{Workers: 4}, ints(3), func(i, v int) (bool, error) {
		wg.Done()
		select {
		case <-done:
			return true, nil
		case <-time.After(5 * time.Second):
			return false, fmt.Errorf("scan did not parallelize: item %d stuck at rendezvous", i)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("kept %d items, want 3", len(out))
	}
}

// TestFilterPreservesDocumentOrder fuzzes sizes, batch sizes and worker
// counts against the obvious sequential reference.
func TestFilterPreservesDocumentOrder(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for round := 0; round < 60; round++ {
		n := r.Intn(500)
		o := scan.Options{Workers: 1 + r.Intn(8), Batch: 1 + r.Intn(17)}
		items := make([]int, n)
		for i := range items {
			items[i] = r.Intn(1000)
		}
		keepEven := func(i, v int) (bool, error) { return v%2 == 0, nil }
		var want []int
		for _, v := range items {
			if v%2 == 0 {
				want = append(want, v)
			}
		}
		got, err := scan.Filter(context.Background(), o, items, keepEven)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d (%+v, n=%d): kept %d, want %d", round, o, n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d (%+v, n=%d): out[%d] = %d, want %d (order broken)", round, o, n, i, got[i], want[i])
			}
		}
	}
}

// TestFilterReportsLowestIndexError pins the deterministic error contract:
// whatever the interleaving, the error reported is the one at the lowest
// item index.
func TestFilterReportsLowestIndexError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("item %d failed", i) }
	for round := 0; round < 20; round++ {
		_, err := scan.Filter(context.Background(), scan.Options{Workers: 4, Batch: 3}, ints(200), func(i, v int) (bool, error) {
			if i%50 == 7 { // fails at 7, 57, 107, 157
				return false, boom(i)
			}
			return true, nil
		})
		if err == nil || err.Error() != "item 7 failed" {
			t.Fatalf("err = %v, want the lowest-index failure", err)
		}
	}
}

func TestFilterAndStreamHonourCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	_, err := scan.Filter(ctx, scan.Options{Workers: 2, Batch: 4}, ints(10000), func(i, v int) (bool, error) {
		if calls.Add(1) == 20 {
			cancel()
		}
		return true, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Filter err = %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	n := 0
	done, err := scan.Stream(ctx2, scan.Options{Batch: 8}, 10000, func(i int) (bool, error) {
		n++
		if n == 20 {
			cancel2()
		}
		return true, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Stream err = %v, want context.Canceled", err)
	}
	if done >= 10000 {
		t.Errorf("Stream walked the whole input (%d) despite cancellation", done)
	}
	cancel()
	cancel2()
}

func TestStreamStopsEarlyAndCounts(t *testing.T) {
	done, err := scan.Stream(context.Background(), scan.Options{Batch: 5}, 100, func(i int) (bool, error) {
		return i < 41, nil // consume 41 items, then stop
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != 41 {
		t.Errorf("done = %d, want 41", done)
	}

	// A negative n scans an unbounded input until step reports the end.
	done, err = scan.Stream(context.Background(), scan.Options{Batch: 5}, -1, func(i int) (bool, error) {
		return i < 73, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != 73 {
		t.Errorf("unbounded done = %d, want 73", done)
	}

	sawErr := errors.New("bad doc")
	done, err = scan.Stream(context.Background(), scan.Options{}, 100, func(i int) (bool, error) {
		if i == 7 {
			return false, sawErr
		}
		return true, nil
	})
	if !errors.Is(err, sawErr) {
		t.Errorf("err = %v, want wrapped bad doc", err)
	}
	if done != 7 {
		t.Errorf("done = %d, want 7", done)
	}
}

// TestScanEmitsObsVocabulary checks both kernels report through the closed
// vocabulary: scan.* counters plus one scan event per pass.
func TestScanEmitsObsVocabulary(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	rec := obs.NewRecorder(&buf)
	rec.SetClock(func() time.Time { return time.Unix(0, 0) })
	ctx := obs.With(context.Background(), obs.Scope{Metrics: reg, Trace: rec})

	if _, err := scan.Filter(ctx, scan.Options{Workers: 2, Batch: 10, Engine: "joda"}, ints(100), func(i, v int) (bool, error) {
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := scan.Stream(ctx, scan.Options{Batch: 10, Engine: "mongodb"}, 50, func(i int) (bool, error) {
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter(obs.MScanItems).Value(); got != 150 {
		t.Errorf("%s = %d, want 150", obs.MScanItems, got)
	}
	if got := reg.Counter(obs.MScanBatches).Value(); got != 15 {
		t.Errorf("%s = %d, want 15", obs.MScanBatches, got)
	}
	if got := reg.Counter(obs.MScanWorkers).Value(); got != 3 {
		t.Errorf("%s = %d, want 3", obs.MScanWorkers, got)
	}
	if got := reg.Counter(obs.MScanCancels).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", obs.MScanCancels, got)
	}

	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("recorded %d events, want 2", len(events))
	}
	par, seq := events[0], events[1]
	if par.Type != obs.EvScan || par.Kind != obs.KindParallel || par.Engine != "joda" || par.Scanned != 100 || par.Workers != 2 {
		t.Errorf("parallel event = %+v", par)
	}
	if seq.Type != obs.EvScan || seq.Kind != obs.KindSequential || seq.Engine != "mongodb" || seq.Scanned != 50 || seq.Workers != 1 {
		t.Errorf("sequential event = %+v", seq)
	}

	// A cancelled pass bumps the cancel counter.
	ctx2, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := scan.Filter(ctx2, scan.Options{Workers: 2, Engine: "joda"}, ints(100), func(i, v int) (bool, error) {
		return true, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if got := reg.Counter(obs.MScanCancels).Value(); got != 1 {
		t.Errorf("%s = %d after cancellation, want 1", obs.MScanCancels, got)
	}
}

func TestScanEmptyInput(t *testing.T) {
	out, err := scan.Filter(context.Background(), scan.Options{Workers: 8}, nil, func(i, v int) (bool, error) {
		return true, nil
	})
	if err != nil || len(out) != 0 {
		t.Errorf("Filter(nil) = (%v, %v)", out, err)
	}
	skipped, err := scan.Shards(context.Background(), scan.Options{Workers: 8}, 0, needsX, nil, nil)
	if err != nil || skipped != 0 {
		t.Errorf("Shards(0) = (%d, %v)", skipped, err)
	}
	done, err := scan.Stream(context.Background(), scan.Options{}, 0, func(i int) (bool, error) {
		return true, nil
	})
	if err != nil || done != 0 {
		t.Errorf("Stream(0) = (%d, %v)", done, err)
	}
}
