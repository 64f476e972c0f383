// Package scan is the one document walk the engine sims execute on. A sim
// supplies what differs between the modelled systems — how many shards its
// storage has and a body that opens one shard (inflate, detoast, evaluate,
// emit) — and Shards owns everything the systems share: work distribution,
// per-shard cancellation, deterministic error reporting and the obs
// accounting. No sim prunes: every shard is handed to its body, as MongoDB,
// PostgreSQL, JODA and jq all read every document of a filtered scan.
// Stream is the same walk for an input whose length is unknown (jqsim's
// decoder), where there is nothing to cut into shards.
//
// The parallel walk distributes shards through an atomic cursor instead of
// one fixed range per worker: under skew (one expensive shard) a fixed range
// stalls its worker while the others drain, whereas cursor claims rebalance
// automatically. Bodies leave their results in per-shard slots, so output
// order never depends on which worker claimed which shard.
//
// The package is inside the determinism lint scope: it never reads the
// clock, so its trace events carry no Duration.
package scan

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/joda-explore/betze/internal/obs"
)

// DefaultBatch is the item count between two cancellation checks of Filter
// and Stream when Options.Batch is unset.
const DefaultBatch = 64

// Options configures one scan pass.
type Options struct {
	// Workers is the goroutine count of a parallel walk. Shards runs on the
	// calling goroutine when it is below 1; Filter treats values below 1 as
	// 1; Stream ignores it.
	Workers int
	// Batch is the item count Filter and Stream process between two
	// cancellation checks. Values below 1 use DefaultBatch; Shards ignores
	// it (its unit is the caller's shard).
	Batch int
	// Engine labels the pass's trace events.
	Engine string
}

// plan clamps the configuration against an n-item input: workers never
// exceed n (a 3-document scan on a 4-thread engine runs 3 workers, not 1),
// and the batch shrinks to ceil(n/workers) so every worker gets a claim on
// small inputs.
func plan(o Options, n int) (workers, batch int) {
	workers = o.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1 // n == 0: one worker observes the empty input
	}
	batch = o.Batch
	if batch < 1 {
		batch = DefaultBatch
	}
	if ceil := (n + workers - 1) / workers; ceil > 0 && batch > ceil {
		batch = ceil
	}
	return workers, batch
}

// walk is the state the workers of one Shards call share.
type walk struct {
	cursor         atomic.Int64
	items, scanned atomic.Int64
	stop           atomic.Bool

	mu    sync.Mutex
	errAt int
	err   error
}

// fail records err at shard index at, keeping the lowest-index error so the
// reported failure is deterministic under any worker interleaving.
func (w *walk) fail(at int, err error) {
	w.mu.Lock()
	if w.err == nil || at < w.errAt {
		w.errAt, w.err = at, err
	}
	w.mu.Unlock()
	w.stop.Store(true)
}

// Shards walks the n shards of a sim's storage, handing each shard whole to
// body exactly once; body returns the item count it consumed.
//
// With o.Workers < 1 the walk runs on the calling goroutine in shard order
// with worker 0, so body may mutate unlocked state; otherwise
// min(o.Workers, n) goroutines claim shards through an atomic cursor, and
// worker — stable per goroutine, in [0, o.Workers) — lets body pin
// per-worker state (an Evaluator, a Parser) without locking. Cancellation is
// checked once per claimed shard. A body error or cancellation stops the
// walk and the lowest-index error is returned. One scan event and the
// scan.* counters report the pass.
func Shards(ctx context.Context, o Options, n int, body func(worker, i int) (int64, error)) error {
	var w walk
	work := func(worker int) {
		for !w.stop.Load() {
			i := int(w.cursor.Add(1)) - 1
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				w.fail(i, err)
				return
			}
			w.scanned.Add(1)
			items, err := body(worker, i)
			w.items.Add(items)
			if err != nil {
				w.fail(i, err)
				return
			}
		}
	}
	workers, kind := 1, obs.KindSequential
	if o.Workers < 1 {
		work(0)
	} else {
		workers, _ = plan(o, n)
		kind = obs.KindParallel
		var wg sync.WaitGroup
		for worker := 0; worker < workers; worker++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				work(worker)
			}(worker)
		}
		wg.Wait()
	}
	observe(ctx, o, kind, workers, w.items.Load(), w.scanned.Load(), w.err)
	return w.err
}

// Filter returns the items keep accepted, in input order: Shards over the
// input cut into batches, one per-batch result slot each. keep may be called
// from multiple goroutines concurrently; an error (or context cancellation)
// aborts the scan and the lowest-index error is returned.
//
// No production caller; kept for benchmark/replay.go until a benchmark PR
// drops the scan.filter_ns_per_item row.
func Filter[T any](ctx context.Context, o Options, items []T, keep func(i int, item T) (bool, error)) ([]T, error) {
	workers, batch := plan(o, len(items))
	kept := make([][]T, (len(items)+batch-1)/batch)
	err := Shards(ctx, Options{Workers: workers, Engine: o.Engine}, len(kept),
		func(_, b int) (int64, error) {
			start := b * batch
			end := min(start+batch, len(items))
			var out []T
			for i := start; i < end; i++ {
				ok, err := keep(i, items[i])
				if err != nil {
					return int64(i - start), err
				}
				if ok {
					out = append(out, items[i])
				}
			}
			kept[b] = out
			return int64(end - start), nil
		})
	if err != nil {
		return nil, err
	}
	return slices.Concat(kept...), nil
}

// Stream is the sequential walk over an input that cannot be cut into
// shards because its length is unknown upfront — a decoder stream (pass a
// negative n). step reports whether item i was consumed and the scan should
// continue; returning false stops without counting that call (end of input,
// result limits). Cancellation is checked once per batch. Stream returns the
// number of items consumed.
func Stream(ctx context.Context, o Options, n int, step func(i int) (bool, error)) (done int, err error) {
	_, batch := plan(Options{Batch: o.Batch}, n)
	var batches int64
	defer func() { observe(ctx, o, obs.KindSequential, 1, int64(done), batches, err) }()
	for n < 0 || done < n {
		if cerr := ctx.Err(); cerr != nil {
			return done, cerr
		}
		batches++
		end := done + batch
		if n >= 0 && end > n {
			end = n
		}
		for done < end {
			ok, serr := step(done)
			if serr != nil {
				return done, serr
			}
			if !ok {
				return done, nil
			}
			done++
		}
	}
	return done, nil
}

// observe reports one finished pass into the scope attached to ctx: the
// scan.* counters plus one scan trace event. A cancelled pass also bumps
// the cancel counter. No Duration is recorded — this package never reads
// the clock.
func observe(ctx context.Context, o Options, kind string, workers int, items, batches int64, err error) {
	sc := obs.From(ctx)
	if !sc.Enabled() {
		return
	}
	sc.Counter(obs.MScanItems).Add(items)
	sc.Counter(obs.MScanBatches).Add(batches)
	sc.Counter(obs.MScanWorkers).Add(int64(workers))
	ev := obs.Event{
		Type:    obs.EvScan,
		Engine:  o.Engine,
		Kind:    kind,
		Scanned: items,
		Workers: workers,
	}
	if err != nil {
		ev.Err = err.Error()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			sc.Counter(obs.MScanCancels).Inc()
		}
	}
	sc.Record(ev)
}
