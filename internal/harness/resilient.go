package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/faultsim"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
)

// RetryPolicy configures the resilient executor: bounded retries with
// exponential backoff and full jitter, and, when the policy retries, a
// per-engine circuit breaker. The zero value executes every operation
// exactly once with no breaker — the seed behaviour, minus aborting the
// session on the first error.
type RetryPolicy struct {
	// MaxAttempts bounds the executions of one operation, including the
	// first (<= 0 means 1, i.e. no retries). Above 1 the breaker is on.
	MaxAttempts int
	// Seed fixes the jitter sequence (0 means 1), keeping backoff
	// schedules reproducible alongside the fault schedule.
	Seed int64
}

const (
	// baseBackoff is the backoff cap before the first retry; it doubles
	// per attempt up to maxBackoff, and the actual sleep is drawn
	// uniformly from [0, cap) — "full jitter".
	baseBackoff = 2 * time.Millisecond
	maxBackoff  = 50 * time.Millisecond
	// breakerThreshold consecutive failed queries open the circuit
	// breaker; while open, queries are skipped without touching the
	// engine until breakerCooldown has passed and a half-open trial runs.
	breakerThreshold = 5
	breakerCooldown  = 100 * time.Millisecond
)

// DefaultRetryPolicy is the profile behind the CLIs' -retries flag: four
// attempts per operation, which out-lasts faultsim's bound of two faults per
// operation, and so a breaker for persistently failing engines.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{MaxAttempts: 4} }

// FaultFlags maps the CLIs' -faults, -fault-seed and -retries flags onto
// fault injection and a retry policy: faults at rate in [0,1] seeded by
// seed, and retries > 0 re-attempts per operation, jittered from the same
// seed. Zero retries is the zero policy.
func FaultFlags(rate float64, seed int64, retries int) (faultsim.Options, RetryPolicy, error) {
	if !(rate >= 0 && rate <= 1) {
		return faultsim.Options{}, RetryPolicy{}, fmt.Errorf("-faults: rate %v outside [0,1]", rate)
	}
	if retries < 0 {
		return faultsim.Options{}, RetryPolicy{}, fmt.Errorf("-retries: negative count %d", retries)
	}
	var pol RetryPolicy
	if retries > 0 {
		pol = RetryPolicy{MaxAttempts: retries + 1, Seed: seed}
	}
	return faultsim.Options{Seed: seed, Rate: rate}, pol, nil
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// backoff draws the full-jitter sleep before retrying attempt+1.
func backoff(rng *rand.Rand, attempt int) time.Duration {
	cap := baseBackoff
	for i := 1; i < attempt && cap < maxBackoff; i++ {
		cap *= 2
	}
	if cap > maxBackoff {
		cap = maxBackoff
	}
	return time.Duration(rng.Float64() * float64(cap))
}

// sleep waits for d or until the context is done, whichever comes first.
func sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// errBreakerOpen marks queries skipped by an open circuit breaker.
var errBreakerOpen = errors.New("harness: circuit breaker open")

// breaker is a consecutive-failure circuit breaker. Off, or closed, it
// passes everything; after breakerThreshold consecutive query failures it
// opens and rejects queries until breakerCooldown elapses, then admits one
// half-open trial whose outcome closes or re-opens it.
type breaker struct {
	on  bool
	now func() time.Time

	consecutive int
	open        bool
	halfOpen    bool
	openedAt    time.Time
}

// allow reports whether the next query may run.
func (b *breaker) allow() bool {
	if !b.on || !b.open {
		return true
	}
	if b.now().Sub(b.openedAt) >= breakerCooldown {
		b.halfOpen = true
		return true
	}
	return false
}

// success records a completed query and reports whether it was the
// half-open trial that closed the breaker.
func (b *breaker) success() bool {
	closed := b.halfOpen
	b.consecutive = 0
	b.open = false
	b.halfOpen = false
	return closed
}

// failure records a failed query and reports whether this failure opened
// (or re-opened) the breaker.
func (b *breaker) failure() bool {
	if !b.on {
		return false
	}
	b.consecutive++
	if b.halfOpen {
		b.halfOpen = false
		b.openedAt = b.now()
		return true
	}
	if !b.open && b.consecutive >= breakerThreshold {
		b.open = true
		b.openedAt = b.now()
		return true
	}
	return false
}

// Outcome is the per-query result of a resilient run.
type Outcome struct {
	Query *query.Query
	// Stats is valid when Err is nil.
	Stats engine.ExecStats
	// Attempts is how many times the query was executed (0 when the
	// breaker skipped it).
	Attempts int
	// Err is the final error of a skipped query; nil on success.
	Err error
	// Skipped marks queries that did not complete (skip-and-record).
	Skipped bool
}

// RunStats aggregates the resilience accounting of one engine run.
type RunStats struct {
	// Completed counts queries that finished successfully.
	Completed int
	// Retries counts re-attempted query executions.
	Retries int
	// Skipped counts queries recorded as failed and passed over.
	Skipped int
	// Recovered counts crash recoveries (lineage replays).
	Recovered int
	// BreakerOpens counts breaker open/re-open transitions.
	BreakerOpens int
	// TimedOut is set when the session deadline expired mid-run; queries
	// after the expiry were not attempted.
	TimedOut bool
}

// RunImport imports one dataset with the policy's retry loop. Only
// transient faults are retried — a structurally bad dataset (PostgreSQL on
// Reddit) fails identically every time. Returns the retry count.
func RunImport(ctx context.Context, eng engine.Engine, name, path string, pol RetryPolicy) (engine.ImportStats, int, error) {
	pol = pol.withDefaults()
	rng := rand.New(rand.NewSource(pol.Seed))
	sc := obs.From(ctx)
	for attempt := 1; ; attempt++ {
		imp, err := eng.ImportFile(ctx, name, path)
		if err == nil || ctx.Err() != nil || attempt >= pol.MaxAttempts || !faultsim.IsTransient(err) {
			return imp, attempt - 1, err
		}
		sc.Counter(obs.MHarnessRetries).Inc()
		sc.Record(obs.Event{
			Type: obs.EvRetry, Engine: eng.Name(), Dataset: name,
			Attempt: attempt, Err: err.Error(),
		})
		sleep(ctx, backoff(rng, attempt))
	}
}

// RunQueries executes a query sequence against one engine with retries of
// transient faults, a circuit breaker, skip-and-record degradation, and
// crash recovery: when the engine loses its derived (stored) datasets — an
// injected crash, or an unknown-dataset error on a name the session stored
// earlier — the executor replays the stored-dataset lineage to rebuild them
// and re-attempts the query. Structural errors (unknown datasets, parse
// failures) fail the same way every time and are not retried. One failed
// query no longer aborts the rest of the session. The session label tags
// emitted trace events.
func RunQueries(ctx context.Context, eng engine.Engine, queries []*query.Query, pol RetryPolicy, sink io.Writer, session string) ([]Outcome, RunStats) {
	return runQueries(ctx, eng, queries, pol, sink, session, time.Now)
}

// runQueries is RunQueries with the breaker's clock as a parameter, so a
// test can step through cooldowns.
func runQueries(ctx context.Context, eng engine.Engine, queries []*query.Query, pol RetryPolicy, sink io.Writer, session string, now func() time.Time) ([]Outcome, RunStats) {
	pol = pol.withDefaults()
	st := &runner{
		eng:     eng,
		pol:     pol,
		sc:      obs.From(ctx),
		session: session,
		rng:     rand.New(rand.NewSource(pol.Seed)),
		br:      &breaker{on: pol.MaxAttempts > 1, now: now},
	}
	var outcomes []Outcome
	var rs RunStats
	for _, q := range queries {
		if ctx.Err() != nil {
			rs.TimedOut = true
			break
		}
		if !st.br.allow() {
			st.sc.Counter(obs.MHarnessSkips).Inc()
			st.sc.Record(obs.Event{
				Type: obs.EvSkip, Engine: eng.Name(), Dataset: q.Base,
				Query: q.ID, Session: session, Kind: obs.KindBreakerOpen,
			})
			outcomes = append(outcomes, Outcome{Query: q, Err: errBreakerOpen, Skipped: true})
			rs.Skipped++
			continue
		}
		o := st.runQuery(ctx, q, sink, &rs)
		if ctx.Err() != nil && o.Err != nil {
			// The session deadline tripped mid-query: report the
			// timeout, do not count the query as skipped.
			rs.TimedOut = true
			st.sc.Counter(obs.MHarnessTimeouts).Inc()
			st.sc.Record(obs.Event{
				Type: obs.EvTimeout, Engine: eng.Name(), Dataset: q.Base,
				Query: q.ID, Session: session,
			})
			break
		}
		outcomes = append(outcomes, o)
		if o.Err == nil {
			rs.Completed++
			if st.br.success() {
				st.sc.Record(obs.Event{
					Type: obs.EvBreaker, Engine: eng.Name(), Session: session,
					Kind: obs.KindClosed, Query: q.ID,
				})
			}
			if q.Store != "" {
				st.lineage = append(st.lineage, q)
			}
			continue
		}
		rs.Skipped++
		st.sc.Counter(obs.MHarnessSkips).Inc()
		st.sc.Record(obs.Event{
			Type: obs.EvSkip, Engine: eng.Name(), Dataset: q.Base,
			Query: q.ID, Session: session, Attempt: o.Attempts, Err: o.Err.Error(),
		})
		if st.br.failure() {
			rs.BreakerOpens++
			st.sc.Counter(obs.MHarnessBreakerOpens).Inc()
			st.sc.Record(obs.Event{
				Type: obs.EvBreaker, Engine: eng.Name(), Session: session,
				Kind: obs.KindOpen, Query: q.ID,
			})
		}
	}
	return outcomes, rs
}

// runner carries the per-run executor state.
type runner struct {
	eng     engine.Engine
	pol     RetryPolicy
	sc      obs.Scope
	session string
	rng     *rand.Rand
	br      *breaker
	// lineage is the ordered list of successfully executed queries that
	// stored a derived dataset; replaying it rebuilds the engine's
	// derived state after a crash.
	lineage []*query.Query
}

// runQuery drives the attempt loop of one query.
func (st *runner) runQuery(ctx context.Context, q *query.Query, sink io.Writer, rs *RunStats) Outcome {
	o := Outcome{Query: q}
	for attempt := 1; attempt <= st.pol.MaxAttempts; attempt++ {
		o.Attempts = attempt
		stats, err := st.eng.Execute(ctx, q, sink)
		if err == nil {
			o.Stats = stats
			o.Err = nil
			return o
		}
		o.Err = err
		if ctx.Err() != nil {
			// Session deadline: the caller turns this into a timeout.
			return o
		}
		if st.crashed(q, err) {
			if st.recover(ctx, rs) && attempt < st.pol.MaxAttempts {
				continue // re-attempt against the rebuilt state
			}
			o.Skipped = true
			return o
		}
		if !faultsim.IsTransient(err) || attempt >= st.pol.MaxAttempts {
			o.Skipped = true
			return o
		}
		rs.Retries++
		st.sc.Counter(obs.MHarnessRetries).Inc()
		st.sc.Record(obs.Event{
			Type: obs.EvRetry, Engine: st.eng.Name(), Dataset: q.Base,
			Query: q.ID, Session: st.session, Attempt: attempt, Err: err.Error(),
		})
		sleep(ctx, backoff(st.rng, attempt))
	}
	o.Skipped = true
	return o
}

// crashed reports whether err means the engine lost its derived state: an
// injected crash, or an unknown-dataset error on a name this session has
// already stored.
func (st *runner) crashed(q *query.Query, err error) bool {
	if faultsim.IsCrash(err) {
		return true
	}
	if !errors.Is(err, engine.ErrUnknownDataset) {
		return false
	}
	for _, l := range st.lineage {
		if l.Store == q.Base {
			return true
		}
	}
	return false
}

// recover replays the stored-dataset lineage in order to rebuild derived
// state. A crash during the replay restarts it (the injector's per-op fault
// bound guarantees convergence); the restart budget guards against a
// pathological engine that crashes forever.
func (st *runner) recover(ctx context.Context, rs *RunStats) bool {
	st.sc.Counter(obs.MHarnessRecoveries).Inc()
	st.sc.Record(obs.Event{
		Type: obs.EvRecovery, Engine: st.eng.Name(), Session: st.session,
		Queries: len(st.lineage),
	})
	restarts := 0
	for i := 0; i < len(st.lineage); i++ {
		q := st.lineage[i]
		var err error
		for attempt := 1; attempt <= st.pol.MaxAttempts; attempt++ {
			if ctx.Err() != nil {
				return false
			}
			_, err = st.eng.Execute(ctx, q, io.Discard)
			if err == nil || !faultsim.IsTransient(err) {
				break
			}
			sleep(ctx, backoff(st.rng, attempt))
		}
		if err == nil {
			continue
		}
		if st.crashed(q, err) && restarts < 8 {
			restarts++
			i = -1 // replay from the top: the crash dropped earlier stores too
			continue
		}
		return false
	}
	rs.Recovered++
	return true
}
