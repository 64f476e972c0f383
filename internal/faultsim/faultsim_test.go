package faultsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
)

// stubEngine succeeds at everything and counts calls, so every observed
// failure is an injected one.
type stubEngine struct {
	imports, execs, resets int
}

func (s *stubEngine) Name() string { return "stub" }

func (s *stubEngine) ImportFile(ctx context.Context, name, path string) (engine.ImportStats, error) {
	s.imports++
	return engine.ImportStats{Docs: 1}, nil
}

func (s *stubEngine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (engine.ExecStats, error) {
	s.execs++
	return engine.ExecStats{Duration: time.Millisecond, Scanned: 1}, nil
}

func (s *stubEngine) Reset() error { s.resets++; return nil }
func (s *stubEngine) Close() error { return nil }

func testQueries(n int) []*query.Query {
	qs := make([]*query.Query, n)
	for i := range qs {
		qs[i] = &query.Query{ID: fmt.Sprintf("q%d", i+1), Base: "ds"}
	}
	return qs
}

// driveUntilDone executes every query against the injector, retrying each
// until it succeeds (the bounded-fault guarantee makes this terminate), and
// returns the per-query attempt counts.
func driveUntilDone(t *testing.T, e *Engine, qs []*query.Query) []int {
	t.Helper()
	ctx := context.Background()
	attempts := make([]int, len(qs))
	for i, q := range qs {
		for {
			attempts[i]++
			if attempts[i] > 100 {
				t.Fatalf("%s still failing after 100 attempts", q.ID)
			}
			if _, err := e.Execute(ctx, q, io.Discard); err == nil {
				break
			}
		}
	}
	return attempts
}

func TestScheduleDeterminism(t *testing.T) {
	opts := Options{Seed: 42, Rate: 0.5}
	run := func() []Fault {
		e := Wrap(&stubEngine{}, opts)
		driveUntilDone(t, e, testQueries(20))
		return e.Schedule()
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("no faults injected at 50% query-error rate over 20 queries")
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("same seed, different schedules:\n%v\n%v", first, second)
	}
	other := Wrap(&stubEngine{}, Options{Seed: 43, Rate: 0.5})
	driveUntilDone(t, other, testQueries(20))
	if reflect.DeepEqual(first, other.Schedule()) {
		t.Errorf("different seeds produced identical schedules: %v", first)
	}
}

// TestScheduleDeterminismInTrace is the acceptance check: two runs with the
// same fault seed emit identical fault events on the trace (modulo sequence
// numbers and timestamps).
func TestScheduleDeterminismInTrace(t *testing.T) {
	opts := Options{Seed: 7, Rate: 0.6}
	type faultKey struct {
		Engine, Dataset, Query, Kind string
		Attempt                      int
	}
	run := func() []faultKey {
		var buf bytes.Buffer
		sc := obs.Scope{Metrics: obs.NewRegistry(), Trace: obs.NewRecorder(&buf)}
		ctx := obs.With(context.Background(), sc)
		e := Wrap(&stubEngine{}, opts)
		for _, q := range testQueries(15) {
			for a := 0; a < 5; a++ {
				if _, err := e.Execute(ctx, q, io.Discard); err == nil {
					break
				}
			}
		}
		events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var keys []faultKey
		for _, ev := range events {
			if ev.Type != obs.EvFault {
				continue
			}
			keys = append(keys, faultKey{ev.Engine, ev.Dataset, ev.Query, ev.Kind, ev.Attempt})
		}
		return keys
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("no fault events on the trace")
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("same fault seed, different trace schedules:\n%v\n%v", first, second)
	}
}

func TestMaxFaultsPerOpBoundsInjection(t *testing.T) {
	stub := &stubEngine{}
	e := Wrap(stub, Options{Seed: 1, Rate: 1})
	attempts := driveUntilDone(t, e, testQueries(5))
	for i, n := range attempts {
		if n != 3 { // two injected failures, then guaranteed success
			t.Errorf("q%d took %d attempts, want 3", i+1, n)
		}
	}
	if stub.execs != 5 {
		t.Errorf("inner engine executed %d times, want 5 (faults must not reach it)", stub.execs)
	}
}

// At seed 7 and rate 1 (TestSchedulePinned), q2's first attempt draws a
// query error, q7's a crash, and q1's a latency spike followed by a query
// error; at seed 123, nobench's first import draws an import error.
func TestErrorClassification(t *testing.T) {
	e := Wrap(&stubEngine{}, Options{Seed: 7, Rate: 1})
	_, err := e.Execute(context.Background(), &query.Query{ID: "q2", Base: "ds"}, io.Discard)
	if !IsTransient(err) {
		t.Errorf("query-error injection not transient: %v", err)
	}
	if IsCrash(err) {
		t.Errorf("query-error injection classified as crash: %v", err)
	}

	stub := &stubEngine{}
	c := Wrap(stub, Options{Seed: 7, Rate: 1})
	_, err = c.Execute(context.Background(), &query.Query{ID: "q7", Base: "ds"}, io.Discard)
	if !IsCrash(err) {
		t.Errorf("crash injection not a crash: %v", err)
	}
	if stub.resets != 1 {
		t.Errorf("crash did not reset the inner engine (resets=%d)", stub.resets)
	}

	i := Wrap(&stubEngine{}, Options{Seed: 123, Rate: 1})
	_, err = i.ImportFile(context.Background(), "nobench", "nowhere.json")
	if !IsTransient(err) {
		t.Errorf("import-error injection not transient: %v", err)
	}
	if IsTransient(errors.New("other")) || IsCrash(nil) {
		t.Error("classification matches unrelated errors")
	}
}

// TestLatencyHonoursContext: a spike under an expired context returns the
// context's error at once instead of running the query.
func TestLatencyHonoursContext(t *testing.T) {
	stub := &stubEngine{}
	e := Wrap(stub, Options{Seed: 7, Rate: 1})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := e.Execute(ctx, &query.Query{ID: "q1", Base: "ds"}, io.Discard)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("latency spike under cancelled context returned %v", err)
	}
	if sched := e.Schedule(); len(sched) != 1 || sched[0].Kind != KindLatency || stub.execs != 0 {
		t.Errorf("schedule = %v, inner executions %d; want one latency fault and none", sched, stub.execs)
	}
}

// TestLatencyDelaysButSucceeds: at seed 7 and rate 0.2, q8's first attempt
// draws a latency spike and nothing else.
func TestLatencyDelaysButSucceeds(t *testing.T) {
	stub := &stubEngine{}
	e := Wrap(stub, Options{Seed: 7, Rate: 0.2})
	start := time.Now()
	if _, err := e.Execute(context.Background(), &query.Query{ID: "q8", Base: "ds"}, io.Discard); err != nil {
		t.Fatalf("latency-only injection failed the query: %v", err)
	}
	if elapsed := time.Since(start); elapsed < latency {
		t.Errorf("query returned after %v, within the %v spike", elapsed, latency)
	}
	if stub.execs != 1 {
		t.Errorf("query did not reach the inner engine")
	}
	sched := e.Schedule()
	if len(sched) != 1 || sched[0].Kind != KindLatency {
		t.Errorf("schedule = %v, want one latency fault", sched)
	}
}

func TestEnabled(t *testing.T) {
	if (Options{}).Enabled() || (Options{Seed: 9}).Enabled() {
		t.Error("zero-rate options enabled")
	}
	if !(Options{Seed: 9, Rate: 0.5}).Enabled() {
		t.Error("positive rate not enabled")
	}
}

func TestPassThrough(t *testing.T) {
	stub := &stubEngine{}
	e := Wrap(stub, Options{Seed: 1})
	if e.Name() != "stub" || e.Inner() != engine.Engine(stub) {
		t.Errorf("wrapper identity: name=%q", e.Name())
	}
	if _, err := e.ImportFile(context.Background(), "ds", "f"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), &query.Query{ID: "q1", Base: "ds"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := e.Reset(); err != nil || stub.resets != 1 {
		t.Errorf("reset pass-through: %v / %d", err, stub.resets)
	}
	if err := e.Close(); err != nil {
		t.Errorf("close pass-through: %v", err)
	}
	if len(e.Schedule()) != 0 {
		t.Errorf("disabled injector recorded faults: %v", e.Schedule())
	}
}

// TestSchedulePinned pins the exact fault schedule of a fixed sequence of
// imports and executions, each retried up to four times, for two seeds and
// three rates: the split of the rate over the fault kinds, the per-operation
// bound and the hash behind them all show in it. The expected schedules
// were captured from the injector before its options were reduced to a
// seed and a rate.
func TestSchedulePinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		rate float64
		want []Fault
	}{
		{7, 0.2, []Fault{{KindQueryError, "exec:q2", 0}, {KindQueryError, "exec:q7", 0}, {KindLatency, "exec:q8", 0}}},
		{7, 0.5, []Fault{{KindLatency, "exec:q1", 0}, {KindQueryError, "exec:q2", 0}, {KindQueryError, "exec:q3", 0}, {KindQueryError, "exec:q5", 0}, {KindCrash, "exec:q5", 1}, {KindLatency, "exec:q6", 0}, {KindCrash, "exec:q7", 0}, {KindQueryError, "exec:q7", 1}, {KindLatency, "exec:q8", 0}}},
		{7, 1, []Fault{{KindLatency, "exec:q1", 0}, {KindQueryError, "exec:q1", 0}, {KindLatency, "exec:q1", 1}, {KindQueryError, "exec:q1", 1}, {KindQueryError, "exec:q2", 0}, {KindCrash, "exec:q2", 1}, {KindLatency, "exec:q3", 0}, {KindQueryError, "exec:q3", 0}, {KindLatency, "exec:q3", 1}, {KindQueryError, "exec:q3", 1}, {KindQueryError, "exec:q4", 0}, {KindLatency, "exec:q4", 1}, {KindQueryError, "exec:q4", 1}, {KindQueryError, "exec:q5", 0}, {KindLatency, "exec:q5", 1}, {KindCrash, "exec:q5", 1}, {KindLatency, "exec:q6", 0}, {KindQueryError, "exec:q6", 0}, {KindLatency, "exec:q6", 1}, {KindQueryError, "exec:q6", 1}, {KindCrash, "exec:q7", 0}, {KindCrash, "exec:q7", 1}, {KindLatency, "exec:q8", 0}, {KindQueryError, "exec:q8", 0}, {KindLatency, "exec:q8", 1}, {KindQueryError, "exec:q8", 1}}},
		{123, 0.2, []Fault{{KindImportError, "import:nobench", 0}, {KindLatency, "exec:q3", 0}, {KindQueryError, "exec:q7", 0}, {KindQueryError, "exec:q8", 0}, {KindQueryError, "exec:q8", 1}}},
		{123, 0.5, []Fault{{KindImportError, "import:nobench", 0}, {KindImportError, "import:nobench", 1}, {KindQueryError, "exec:q2", 0}, {KindQueryError, "exec:q2", 1}, {KindLatency, "exec:q3", 0}, {KindCrash, "exec:q4", 0}, {KindLatency, "exec:q4", 1}, {KindQueryError, "exec:q5", 0}, {KindQueryError, "exec:q5", 1}, {KindLatency, "exec:q6", 0}, {KindQueryError, "exec:q7", 0}, {KindQueryError, "exec:q7", 1}, {KindQueryError, "exec:q8", 0}, {KindQueryError, "exec:q8", 1}}},
		{123, 1, []Fault{{KindImportError, "import:nobench", 0}, {KindImportError, "import:nobench", 1}, {KindQueryError, "exec:q1", 0}, {KindQueryError, "exec:q1", 1}, {KindLatency, "exec:q2", 0}, {KindQueryError, "exec:q2", 0}, {KindQueryError, "exec:q2", 1}, {KindLatency, "exec:q3", 0}, {KindQueryError, "exec:q3", 0}, {KindCrash, "exec:q3", 1}, {KindCrash, "exec:q4", 0}, {KindLatency, "exec:q4", 1}, {KindQueryError, "exec:q4", 1}, {KindQueryError, "exec:q5", 0}, {KindLatency, "exec:q5", 1}, {KindQueryError, "exec:q5", 1}, {KindLatency, "exec:q6", 0}, {KindQueryError, "exec:q6", 0}, {KindLatency, "exec:q6", 1}, {KindCrash, "exec:q6", 1}, {KindQueryError, "exec:q7", 0}, {KindQueryError, "exec:q7", 1}, {KindQueryError, "exec:q8", 0}, {KindQueryError, "exec:q8", 1}}},
	} {
		e := Wrap(&stubEngine{}, Options{Seed: tc.seed, Rate: tc.rate})
		ctx := context.Background()
		for _, name := range []string{"twitter", "nobench"} {
			for a := 0; a < 4; a++ {
				if _, err := e.ImportFile(ctx, name, "unused"); err == nil {
					break
				}
			}
		}
		for _, q := range testQueries(8) {
			for a := 0; a < 4; a++ {
				if _, err := e.Execute(ctx, q, io.Discard); err == nil {
					break
				}
			}
		}
		if got := e.Schedule(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("seed %d rate %v: schedule\n%v\nwant\n%v", tc.seed, tc.rate, got, tc.want)
		}
	}
}
