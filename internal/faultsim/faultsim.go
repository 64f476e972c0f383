// Package faultsim is a deterministic, seeded fault injector for engines: it
// wraps any engine.Engine and injects transient query errors, import
// failures, latency spikes, and engine "crashes" that drop derived (stored)
// datasets. Every injection decision is a pure hash of (seed, operation kind,
// operation key, attempt number), so the same seed yields the same fault
// schedule regardless of wall clock, goroutine interleaving, or whether the
// caller retries — failures become reproducible test fixtures instead of
// flakes. The paper's evaluation is full of exactly these partial failures
// (PostgreSQL cannot import Reddit, jq times out on large sweeps); faultsim
// lets the harness rehearse them on demand.
package faultsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/errfs"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
)

// ErrInjected marks a transient injected failure: the operation would have
// succeeded, and a retry (with a fresh attempt number) may succeed.
var ErrInjected = errors.New("faultsim: injected transient fault")

// ErrCrash marks an injected engine crash. The wrapped engine's derived
// (stored) datasets are dropped before the error is returned, exactly like a
// process restart that loses non-persistent state; callers must replay the
// stored-dataset lineage to continue the session.
var ErrCrash = errors.New("faultsim: injected engine crash")

// IsTransient reports whether err is (or wraps) an injected transient fault.
func IsTransient(err error) bool { return errors.Is(err, ErrInjected) }

// IsCrash reports whether err is (or wraps) an injected engine crash.
func IsCrash(err error) bool { return errors.Is(err, ErrCrash) }

// Fault kinds, used in schedules, trace events and metric names.
const (
	KindQueryError  = "query_error"
	KindImportError = "import_error"
	KindLatency     = "latency"
	KindCrash       = "crash"
)

// Options configures the injector: one rate, split across the fault kinds
// as the CLIs' -faults flag documents. Transient query errors fire at Rate,
// import errors and latency spikes at Rate/2, and crashes at Rate/5, each
// evaluated independently per operation attempt.
type Options struct {
	// Seed fixes the fault schedule; the same seed injects the same
	// faults at the same operations and attempts.
	Seed int64
	// Rate is the query-error probability in [0, 1]; the other kinds
	// fire at the fractions above.
	Rate float64
}

// Enabled reports whether any fault kind can fire.
func (o Options) Enabled() bool { return o.Rate > 0 }

const (
	// latency is the duration of an injected latency spike: Execute
	// sleeps for it (honouring the context) before running normally.
	latency = 2 * time.Millisecond
	// maxFaultsPerOp bounds how many attempts of one operation can fault.
	// Attempts beyond the bound never fault, so an executor retrying more
	// than maxFaultsPerOp times is guaranteed to get through — the
	// property the resilience experiments rely on.
	maxFaultsPerOp = 2
)

// Fault is one entry of the injected-fault schedule.
type Fault struct {
	// Kind is one of the Kind* constants.
	Kind string
	// Op identifies the operation ("import:<dataset>" or "exec:<query>").
	Op string
	// Attempt is the zero-based attempt number of the operation when the
	// fault fired.
	Attempt int
}

// Engine wraps an inner engine with fault injection. It is safe for
// concurrent use (the multi-user harness shares one engine across
// goroutines); the schedule records faults in injection order.
type Engine struct {
	inner engine.Engine
	opts  Options

	mu       sync.Mutex
	attempts map[string]int
	schedule []Fault
}

// Wrap returns inner with fault injection according to opts.
func Wrap(inner engine.Engine, opts Options) *Engine {
	return &Engine{
		inner:    inner,
		opts:     opts,
		attempts: make(map[string]int),
	}
}

// Inner returns the wrapped engine.
func (e *Engine) Inner() engine.Engine { return e.inner }

// Schedule returns a copy of the injected faults so far, in order.
func (e *Engine) Schedule() []Fault {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Fault(nil), e.schedule...)
}

// nextAttempt hands out the zero-based attempt number for an operation key.
func (e *Engine) nextAttempt(op string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.attempts[op]
	e.attempts[op] = n + 1
	return n
}

// decide is the pure injection decision: the shared errfs.Chance hash of
// (seed, kind, op, attempt) mapped to [0, 1) and compared against kind's
// share of the rate — byte-identical to the original in-package hash, so
// existing seeds keep their fault schedules. Attempts at or beyond
// maxFaultsPerOp never fault.
func (e *Engine) decide(kind, op string, attempt int) bool {
	rate := e.opts.Rate
	switch kind {
	case KindImportError, KindLatency:
		rate /= 2
	case KindCrash:
		rate /= 5
	}
	if rate <= 0 || attempt >= maxFaultsPerOp {
		return false
	}
	return errfs.Chance(e.opts.Seed, kind, op, attempt) < rate
}

// inject records the fault in the schedule and the observability scope.
func (e *Engine) inject(ctx context.Context, kind, op string, attempt int, dataset, queryID string) {
	e.mu.Lock()
	e.schedule = append(e.schedule, Fault{Kind: kind, Op: op, Attempt: attempt})
	e.mu.Unlock()
	sc := obs.From(ctx)
	if !sc.Enabled() {
		return
	}
	sc.Counter(obs.FaultMetric(kind)).Inc()
	sc.Record(obs.Event{
		Type: obs.EvFault, Engine: e.inner.Name(), Dataset: dataset,
		Query: queryID, Kind: kind, Attempt: attempt,
	})
}

// Name implements engine.Engine; the injector is transparent in labels.
func (e *Engine) Name() string { return e.inner.Name() }

// ImportFile implements engine.Engine with import-failure injection.
func (e *Engine) ImportFile(ctx context.Context, name, path string) (engine.ImportStats, error) {
	op := "import:" + name
	attempt := e.nextAttempt(op)
	if e.decide(KindImportError, op, attempt) {
		e.inject(ctx, KindImportError, op, attempt, name, "")
		return engine.ImportStats{}, fmt.Errorf("importing %q (attempt %d): %w", name, attempt, ErrInjected)
	}
	return e.inner.ImportFile(ctx, name, path)
}

// Execute implements engine.Engine with latency, crash and transient-error
// injection. A latency spike delays but does not fail the query (unless the
// context expires during the spike); a crash drops the inner engine's
// derived datasets via Reset before failing.
func (e *Engine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (engine.ExecStats, error) {
	op := "exec:" + q.ID
	attempt := e.nextAttempt(op)
	if e.decide(KindLatency, op, attempt) {
		e.inject(ctx, KindLatency, op, attempt, q.Base, q.ID)
		t := time.NewTimer(latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return engine.ExecStats{}, ctx.Err()
		}
	}
	if e.decide(KindCrash, op, attempt) {
		e.inject(ctx, KindCrash, op, attempt, q.Base, q.ID)
		if err := e.inner.Reset(); err != nil {
			return engine.ExecStats{}, fmt.Errorf("crash during %s: reset: %w (%w)", q.ID, err, ErrCrash)
		}
		return engine.ExecStats{}, fmt.Errorf("crash during %s (attempt %d): %w", q.ID, attempt, ErrCrash)
	}
	if e.decide(KindQueryError, op, attempt) {
		e.inject(ctx, KindQueryError, op, attempt, q.Base, q.ID)
		return engine.ExecStats{}, fmt.Errorf("executing %s (attempt %d): %w", q.ID, attempt, ErrInjected)
	}
	return e.inner.Execute(ctx, q, sink)
}

// Reset implements engine.Engine. The attempt counters survive: determinism
// is keyed by operation, not by engine lifecycle.
func (e *Engine) Reset() error { return e.inner.Reset() }

// Close implements engine.Engine.
func (e *Engine) Close() error { return e.inner.Close() }
