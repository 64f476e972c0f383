package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/faultsim"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
)

// okEngine succeeds at everything; wrapped with faultsim, every failure it
// shows is an injected one.
type okEngine struct{ execs int }

func (*okEngine) Name() string { return "ok" }

func (*okEngine) ImportFile(ctx context.Context, name, path string) (engine.ImportStats, error) {
	return engine.ImportStats{Docs: 1}, nil
}

func (e *okEngine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (engine.ExecStats, error) {
	e.execs++
	return engine.ExecStats{Duration: time.Millisecond, Scanned: 1}, nil
}

func (*okEngine) Reset() error { return nil }
func (*okEngine) Close() error { return nil }

// permFailEngine fails its first `fails` executions with a permanent
// (non-retryable) error, then succeeds.
type permFailEngine struct {
	fails int
	execs int
}

func (*permFailEngine) Name() string { return "permfail" }

func (*permFailEngine) ImportFile(ctx context.Context, name, path string) (engine.ImportStats, error) {
	return engine.ImportStats{}, nil
}

func (e *permFailEngine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (engine.ExecStats, error) {
	e.execs++
	if e.execs <= e.fails {
		return engine.ExecStats{}, errors.New("permanent failure")
	}
	return engine.ExecStats{Duration: time.Millisecond}, nil
}

func (*permFailEngine) Reset() error { return nil }
func (*permFailEngine) Close() error { return nil }

// slowOnceEngine blocks its first execution until the (session) context
// expires, then answers instantly — the shape of one stuck query.
type slowOnceEngine struct{ execs int }

func (*slowOnceEngine) Name() string { return "slowonce" }

func (*slowOnceEngine) ImportFile(ctx context.Context, name, path string) (engine.ImportStats, error) {
	return engine.ImportStats{}, nil
}

func (e *slowOnceEngine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (engine.ExecStats, error) {
	e.execs++
	if e.execs == 1 {
		<-ctx.Done()
		return engine.ExecStats{}, ctx.Err()
	}
	return engine.ExecStats{Duration: time.Millisecond}, nil
}

func (*slowOnceEngine) Reset() error { return nil }
func (*slowOnceEngine) Close() error { return nil }

// amnesiacEngine tracks datasets like a real engine but silently loses its
// derived datasets at execution number forgetAt — a crash the executor can
// only detect by the unknown-dataset error on a name the session stored.
type amnesiacEngine struct {
	forgetAt int
	execs    int
	cat      *engine.Catalog[bool]
}

func newAmnesiac(forgetAt int) *amnesiacEngine {
	return &amnesiacEngine{forgetAt: forgetAt, cat: engine.NewCatalog[bool]("amnesiac")}
}

func (*amnesiacEngine) Name() string { return "amnesiac" }

func (e *amnesiacEngine) ImportFile(ctx context.Context, name, path string) (engine.ImportStats, error) {
	e.cat.Import(name, true)
	return engine.ImportStats{Docs: 1}, nil
}

func (e *amnesiacEngine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (engine.ExecStats, error) {
	e.execs++
	if e.execs == e.forgetAt {
		e.cat.Reset()
	}
	if _, err := e.cat.Get(q.Base); err != nil {
		return engine.ExecStats{}, err
	}
	if q.Store != "" {
		e.cat.Store(q.Store, true)
	}
	return engine.ExecStats{Duration: time.Millisecond}, nil
}

// has reports whether name resolves to a dataset.
func (e *amnesiacEngine) has(name string) bool {
	_, err := e.cat.Get(name)
	return err == nil
}

func (e *amnesiacEngine) Reset() error {
	e.cat.Reset()
	return nil
}

func (*amnesiacEngine) Close() error { return nil }

// crashFirstEngine crashes the first execution of every query the way
// faultsim does — it resets the inner engine, dropping its derived
// datasets, and fails with faultsim.ErrCrash — and passes later ones
// through.
type crashFirstEngine struct {
	engine.Engine
	crashed map[string]bool
}

func crashFirst(inner engine.Engine) *crashFirstEngine {
	return &crashFirstEngine{Engine: inner, crashed: make(map[string]bool)}
}

func (e *crashFirstEngine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (engine.ExecStats, error) {
	if e.crashed[q.ID] {
		return e.Engine.Execute(ctx, q, sink)
	}
	e.crashed[q.ID] = true
	if err := e.Engine.Reset(); err != nil {
		return engine.ExecStats{}, err
	}
	return engine.ExecStats{}, fmt.Errorf("crash during %s: %w", q.ID, faultsim.ErrCrash)
}

func plainQueries(n int) []*query.Query {
	qs := make([]*query.Query, n)
	for i := range qs {
		qs[i] = &query.Query{ID: fmt.Sprintf("q%d", i+1), Base: "ds"}
	}
	return qs
}

func traceScope() (obs.Scope, *bytes.Buffer, *obs.Registry) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	return obs.Scope{Metrics: reg, Trace: obs.NewRecorder(&buf)}, &buf, reg
}

// TestRetryCompletesWhatNoRetryDrops is the acceptance check: at a fixed
// fault seed and rate, the retrying executor completes every query the
// no-retry run drops.
func TestRetryCompletesWhatNoRetryDrops(t *testing.T) {
	opts := faultsim.Options{Seed: 99, Rate: 0.6}
	qs := plainQueries(20)

	noRetry, rs1 := RunQueries(context.Background(),
		faultsim.Wrap(&okEngine{}, opts), qs, RetryPolicy{}, io.Discard, "t")
	if rs1.Skipped == 0 {
		t.Fatal("no-retry run dropped nothing at a 60% fault rate — test is vacuous")
	}
	if rs1.Retries != 0 {
		t.Errorf("no-retry run retried %d times", rs1.Retries)
	}

	sc, _, reg := traceScope()
	ctx := obs.With(context.Background(), sc)
	withRetry, rs2 := RunQueries(ctx,
		faultsim.Wrap(&okEngine{}, opts), qs, DefaultRetryPolicy(), io.Discard, "t")
	if rs2.Completed != len(qs) || rs2.Skipped != 0 {
		t.Fatalf("retrying run: completed %d/%d, skipped %d", rs2.Completed, len(qs), rs2.Skipped)
	}
	if rs2.Retries == 0 {
		t.Error("retrying run reports zero retries under injection")
	}
	for i := range qs {
		if noRetry[i].Err != nil && withRetry[i].Err != nil {
			t.Errorf("%s dropped by both runs: %v", qs[i].ID, withRetry[i].Err)
		}
	}
	if got := reg.Counter("harness.retries").Value(); got != int64(rs2.Retries) {
		t.Errorf("harness.retries counter = %d, want %d", got, rs2.Retries)
	}
}

// TestCrashRecoveryReplaysLineage crashes every query's first attempt: the
// executor must rebuild the derived datasets and finish the session.
func TestCrashRecoveryReplaysLineage(t *testing.T) {
	qs := []*query.Query{
		{ID: "q1", Base: "base", Store: "d1"},
		{ID: "q2", Base: "d1", Store: "d2"},
		{ID: "q3", Base: "d2"},
	}
	inner := newAmnesiac(0)
	eng := crashFirst(inner)
	ctx := context.Background()
	if _, _, err := RunImport(ctx, eng, "base", "f", DefaultRetryPolicy()); err != nil {
		t.Fatal(err)
	}
	sc, buf, reg := traceScope()
	_, rs := RunQueries(obs.With(ctx, sc), eng, qs, DefaultRetryPolicy(), io.Discard, "t")
	if rs.Completed != len(qs) || rs.Skipped != 0 {
		t.Fatalf("crashing session did not finish: %+v", rs)
	}
	if rs.Recovered == 0 {
		t.Error("no recoveries recorded despite injected crashes")
	}
	if !inner.has("d1") || !inner.has("d2") {
		t.Error("derived datasets not rebuilt")
	}
	if got := reg.Counter("harness.recoveries").Value(); got == 0 {
		t.Error("harness.recoveries counter not incremented")
	}
	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var sawRecovery bool
	for _, e := range events {
		if e.Type == obs.EvRecovery {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Error("no recovery event on the trace")
	}
}

// TestCrashRecoveryOnRealSims runs TestCrashRecoveryReplaysLineage's store
// lineage on every sim over real data: with a crash on each query's first
// attempt, every query must end as it does without faults.
func TestCrashRecoveryOnRealSims(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nobench.json")
	if err := datasets.NewNoBench().WriteFile(path, 800, 3); err != nil {
		t.Fatal(err)
	}
	qs := []*query.Query{
		{ID: "q1", Base: "base", Store: "d1", Filter: query.HasPrefix{Path: "/str1", Prefix: "G"}},
		{ID: "q2", Base: "d1", Store: "d2", Filter: query.BoolEq{Path: "/bool", Value: true}},
		{ID: "q3", Base: "d2"},
	}
	ctx := context.Background()
	for _, key := range paperSystems {
		sys := Systems[key]
		run := func(crash bool) ([]Outcome, RunStats) {
			eng, err := sys.New(t.TempDir(), 2)
			if err != nil {
				t.Fatal(err)
			}
			if crash {
				eng = crashFirst(eng)
			}
			defer eng.Close()
			if _, _, err := RunImport(ctx, eng, "base", path, DefaultRetryPolicy()); err != nil {
				t.Fatal(err)
			}
			return RunQueries(ctx, eng, qs, DefaultRetryPolicy(), io.Discard, "t")
		}
		want, _ := run(false)
		got, rs := run(true)
		if rs.Completed != len(qs) || rs.Recovered == 0 {
			t.Fatalf("%s: crashing session: %+v", sys.Name, rs)
		}
		for i, w := range want {
			g := got[i].Stats
			if w.Err != nil || w.Stats.Matched == 0 || g.Matched != w.Stats.Matched || g.Returned != w.Stats.Returned || g.OutputBytes != w.Stats.OutputBytes {
				t.Errorf("%s %s: crashing run %+v, fault-free run %+v (%v)", sys.Name, qs[i].ID, g, w.Stats, w.Err)
			}
		}
	}
}

// TestSilentCrashDetectedViaLineage covers the second crash trigger: the
// engine loses derived state without returning a crash error, and the
// executor infers the crash from ErrUnknownDataset on a stored name.
func TestSilentCrashDetectedViaLineage(t *testing.T) {
	qs := []*query.Query{
		{ID: "q1", Base: "base", Store: "d1"},
		{ID: "q2", Base: "d1"},
		{ID: "q3", Base: "d1"},
	}
	inner := newAmnesiac(2) // forget derived state right when q2 executes
	if _, err := inner.ImportFile(context.Background(), "base", "f"); err != nil {
		t.Fatal(err)
	}
	_, rs := RunQueries(context.Background(), inner, qs, DefaultRetryPolicy(), io.Discard, "t")
	if rs.Completed != len(qs) || rs.Recovered != 1 {
		t.Fatalf("silent crash not recovered: %+v", rs)
	}
	if !inner.has("d1") {
		t.Error("derived dataset not rebuilt")
	}
}

// TestUnknownBaseIsNotACrash: an unknown dataset the session never stored is
// a permanent error — skip-and-record, no recovery, no retries.
func TestUnknownBaseIsNotACrash(t *testing.T) {
	qs := []*query.Query{
		{ID: "q1", Base: "ds"},
		{ID: "q2", Base: "ghost"},
		{ID: "q3", Base: "ds"},
	}
	inner := newAmnesiac(0)
	inner.cat.Import("ds", true)
	outcomes, rs := RunQueries(context.Background(), inner, qs, DefaultRetryPolicy(), io.Discard, "t")
	if rs.Completed != 2 || rs.Skipped != 1 || rs.Recovered != 0 || rs.Retries != 0 {
		t.Fatalf("stats = %+v", rs)
	}
	if outcomes[1].Err == nil || !errors.Is(outcomes[1].Err, engine.ErrUnknownDataset) || outcomes[1].Attempts != 1 {
		t.Errorf("ghost outcome = %+v", outcomes[1])
	}
	if rs.FirstErr == nil || !errors.Is(rs.FirstErr, engine.ErrUnknownDataset) {
		t.Errorf("FirstErr = %v", rs.FirstErr)
	}
}

// TestBreakerOpensAndSkips: when the policy retries, consecutive failures
// open the breaker; while open, queries are skipped without touching the
// engine. The zero policy has no breaker.
func TestBreakerOpensAndSkips(t *testing.T) {
	noBreaker := &permFailEngine{fails: 1000}
	if _, rs := RunQueries(context.Background(), noBreaker, plainQueries(10), RetryPolicy{}, io.Discard, "t"); rs.BreakerOpens != 0 || noBreaker.execs != 10 {
		t.Errorf("zero policy: %d breaker opens, %d executions; want 0 and 10", rs.BreakerOpens, noBreaker.execs)
	}

	eng := &permFailEngine{fails: 1000}
	stopped := func() time.Time { return time.Time{} } // the cooldown never ends
	sc, buf, reg := traceScope()
	outcomes, rs := runQueries(obs.With(context.Background(), sc), eng, plainQueries(10), RetryPolicy{MaxAttempts: 2}, io.Discard, "t", stopped)
	if rs.BreakerOpens != 1 || rs.Skipped != 10 || rs.Completed != 0 {
		t.Fatalf("stats = %+v", rs)
	}
	if eng.execs != breakerThreshold {
		t.Errorf("engine executed %d times, want %d (breaker must short-circuit)", eng.execs, breakerThreshold)
	}
	for i, o := range outcomes[breakerThreshold:] {
		if o.Attempts != 0 || !o.Skipped {
			t.Errorf("outcome %d not short-circuited: %+v", i+breakerThreshold, o)
		}
	}
	if got := reg.Counter("harness.breaker_opens").Value(); got != 1 {
		t.Errorf("harness.breaker_opens = %d, want 1", got)
	}
	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	breakerSkips := 0
	sawOpen := false
	for _, e := range events {
		if e.Type == obs.EvSkip && e.Kind == "breaker_open" {
			breakerSkips++
		}
		if e.Type == obs.EvBreaker && e.Kind == "open" {
			sawOpen = true
		}
	}
	if breakerSkips != 10-breakerThreshold || !sawOpen {
		t.Errorf("breaker trace: %d breaker_open skips (want %d), open event %v", breakerSkips, 10-breakerThreshold, sawOpen)
	}
}

// TestBreakerHalfOpenRecovers: after the cooldown a trial query runs; its
// failure re-opens the breaker, its success closes it for good, and the
// trace shows each transition.
func TestBreakerHalfOpenRecovers(t *testing.T) {
	eng := &permFailEngine{fails: 6}
	// Each clock reading is one cooldown after the last, so every query
	// after the breaker opens is a half-open trial.
	var clock time.Time
	step := func() time.Time { clock = clock.Add(breakerCooldown); return clock }
	sc, buf, _ := traceScope()
	_, rs := runQueries(obs.With(context.Background(), sc), eng, plainQueries(10), RetryPolicy{MaxAttempts: 2}, io.Discard, "t", step)
	// q1–q5 fail and open the breaker; q6 is a failing half-open trial that
	// re-opens it; q7 is a succeeding trial that closes it; q8–q10 pass.
	if rs.BreakerOpens != 2 {
		t.Errorf("BreakerOpens = %d, want 2", rs.BreakerOpens)
	}
	if rs.Completed != 4 || rs.Skipped != 6 {
		t.Errorf("stats = %+v", rs)
	}
	if eng.execs != 10 {
		t.Errorf("engine executed %d times, want 10", eng.execs)
	}
	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var transitions []string
	for _, e := range events {
		if e.Type == obs.EvBreaker {
			transitions = append(transitions, e.Query+":"+e.Kind)
		}
	}
	if got := strings.Join(transitions, " "); got != "q5:open q6:open q7:closed" {
		t.Errorf("breaker transitions %q, want q5:open q6:open q7:closed", got)
	}
}

// TestSessionDeadlineStillWins: the session timeout is reported as a
// timeout, not converted into retries or skips.
func TestSessionDeadlineStillWins(t *testing.T) {
	eng := &slowOnceEngine{}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	sc, buf, reg := traceScope()
	_, rs := RunQueries(obs.With(ctx, sc), eng, plainQueries(3), DefaultRetryPolicy(), io.Discard, "sess")
	if !rs.TimedOut {
		t.Fatalf("session deadline not reported: %+v", rs)
	}
	if rs.Skipped != 0 {
		t.Errorf("timeout miscounted as skip: %+v", rs)
	}
	if got := reg.Counter("harness.timeouts").Value(); got != 1 {
		t.Errorf("harness.timeouts = %d, want 1", got)
	}
	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sawTimeout := false
	for _, e := range events {
		if e.Type == obs.EvTimeout && e.Query == "q1" {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Error("no timeout event for the stuck query")
	}
}

// TestRunImportRetries: a transient import fault is retried.
func TestRunImportRetries(t *testing.T) {
	imp, retries, err := RunImport(context.Background(), &flakyImportEngine{}, "ds", "f", RetryPolicy{MaxAttempts: 3})
	if err != nil {
		t.Fatalf("import did not recover: %v", err)
	}
	if retries != 1 || imp.Docs != 1 {
		t.Errorf("retries = %d, imp = %+v", retries, imp)
	}
}

// TestRunImportPermanentFailsFast: a structurally failing import is not
// retried (PostgreSQL on Reddit fails the same way every time).
func TestRunImportPermanentFailsFast(t *testing.T) {
	eng := newAmnesiac(0)
	failing := &importFailEngine{inner: eng}
	_, retries, err := RunImport(context.Background(), failing, "ds", "f", DefaultRetryPolicy())
	if err == nil || retries != 0 {
		t.Errorf("permanent import error retried %d times (err %v)", retries, err)
	}
	if failing.calls != 1 {
		t.Errorf("import attempted %d times, want 1", failing.calls)
	}
}

type importFailEngine struct {
	inner engine.Engine
	calls int
}

func (e *importFailEngine) Name() string { return e.inner.Name() }

func (e *importFailEngine) ImportFile(ctx context.Context, name, path string) (engine.ImportStats, error) {
	e.calls++
	return engine.ImportStats{}, errors.New("bad input bytes")
}

func (e *importFailEngine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (engine.ExecStats, error) {
	return e.inner.Execute(ctx, q, sink)
}

func (e *importFailEngine) Reset() error { return e.inner.Reset() }
func (e *importFailEngine) Close() error { return e.inner.Close() }

// TestResilienceExperimentDeterministic: the resilience table contains only
// counts derived from the deterministic fault schedule, so two runs over
// the same Env must render identically.
func TestResilienceExperimentDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sessions")
	}
	env := newTinyEnv(t)
	first, err := Resilience(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Resilience(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if first.Text() != second.Text() {
		t.Errorf("resilience output not deterministic:\n%s\n---\n%s", first.Text(), second.Text())
	}
	// The zero-rate rows must complete everything with no resilience
	// machinery engaged.
	rows := first.Tables[0].Rows
	if len(rows) != 6 {
		t.Fatalf("want 6 rows, got %d:\n%s", len(rows), first.Text())
	}
	for _, row := range rows[:2] {
		if row[3] != "0" || row[4] != "0" || row[5] != "0" {
			t.Errorf("zero-rate row shows resilience activity: %v", row)
		}
	}
	// With retries on, every faulted run must complete all queries
	// (MaxAttempts exceeds the injector's per-op fault bound).
	for i, row := range rows {
		if i%2 == 1 && row[2] != rows[0][2] {
			t.Errorf("retrying row %d completed %q, want %q: %v", i, row[2], rows[0][2], row)
		}
	}
}

// TestMultiUserDegradesUnderFaults: with fault injection on the shared
// engine, MultiUser must record per-user failures instead of aborting, and
// keep session_start/session_end balanced on the trace.
func TestMultiUserDegradesUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full multi-user sweeps")
	}
	cfg := tinyConfig(t)
	sc, buf, _ := traceScope()
	cfg.Obs = sc
	cfg.Faults = faultsim.Options{Seed: 77, Rate: 0.8}
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	res, err := MultiUser(context.Background(), env)
	if err != nil {
		t.Fatalf("MultiUser aborted instead of degrading: %v", err)
	}
	out := res.Text()
	if out == "" {
		t.Fatal("no output")
	}
	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	starts, ends := 0, 0
	for _, e := range events {
		switch e.Type {
		case obs.EvSessionStart:
			starts++
		case obs.EvSessionEnd:
			ends++
		}
	}
	if starts == 0 || starts != ends {
		t.Errorf("unbalanced multiuser sessions: %d starts, %d ends\n%s", starts, ends, out)
	}
}

// TestMultiUserRetriesFaults: MultiUser runs every user through the
// resilient executor with Config.Retry, so transient faults below the
// injector's per-operation bound cost retries, not queries.
func TestMultiUserRetriesFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full multi-user sweeps")
	}
	cfg := tinyConfig(t)
	cfg.Faults = faultsim.Options{Seed: 77, Rate: 0.5}
	cfg.Retry = DefaultRetryPolicy()
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	res, err := MultiUser(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Tables[0].Rows {
		if row[1] != row[2] {
			t.Errorf("%s users completed %s of %s queries", row[0], row[2], row[1])
		}
	}
	if len(res.Notes) != 1 {
		t.Errorf("failure notes under retried faults:\n%s", res.Text())
	}
}

// TestFaultFlags pins the CLIs' mapping of -faults, -fault-seed and
// -retries.
func TestFaultFlags(t *testing.T) {
	for _, tc := range []struct {
		rate    float64
		retries int
		bad     string
	}{
		{-0.1, 0, "-faults"}, {1.5, 0, "-faults"}, {math.NaN(), 0, "-faults"}, {0.2, -1, "-retries"},
	} {
		if _, _, err := FaultFlags(tc.rate, 9, tc.retries); err == nil || !strings.HasPrefix(err.Error(), tc.bad+": ") {
			t.Errorf("FaultFlags(%v, 9, %d) = %v, want a %s error", tc.rate, tc.retries, err, tc.bad)
		}
	}
	faults, pol, err := FaultFlags(0.5, 9, 0)
	if err != nil || pol != (RetryPolicy{}) || faults != (faultsim.Options{Seed: 9, Rate: 0.5}) {
		t.Errorf("0 retries: %+v %+v %v, want the zero policy", faults, pol, err)
	}
	faults, pol, err = FaultFlags(0.5, 9, 3)
	want := RetryPolicy{MaxAttempts: 4, Seed: 9}
	if err != nil || pol != want || faults != (faultsim.Options{Seed: 9, Rate: 0.5}) {
		t.Errorf("3 retries: %+v %+v %v, want %+v", faults, pol, err, want)
	}
}

// flakyImportEngine fails its first import with an injected transient
// fault, then behaves like okEngine.
type flakyImportEngine struct {
	okEngine
	imports int
}

func (e *flakyImportEngine) ImportFile(ctx context.Context, name, path string) (engine.ImportStats, error) {
	e.imports++
	if e.imports == 1 {
		return engine.ImportStats{}, faultsim.ErrInjected
	}
	return engine.ImportStats{Docs: 1}, nil
}

// TestRunSessionCountsImportRetries: a session record's retries are import
// retries plus query retries.
func TestRunSessionCountsImportRetries(t *testing.T) {
	qs := plainQueries(3)
	pol := RetryPolicy{MaxAttempts: 3}
	rec := RunSession(context.Background(), &flakyImportEngine{}, []Import{{Name: "ds", Path: "f"}}, qs, pol, "t")
	if rec.Error != "" {
		t.Fatalf("import not retried: %s", rec.Error)
	}
	if rec.Retries != 1 || rec.Completed != len(qs) || len(rec.Queries) != len(qs) {
		t.Errorf("record = %+v, want 1 retry and %d completed queries", rec, len(qs))
	}
	if rec.Import.Docs != 1 || len(rec.Imports) != 1 {
		t.Errorf("import = %+v / %v", rec.Import, rec.Imports)
	}
}
