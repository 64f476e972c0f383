package harness

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
)

// slowEngine imports instantly but blocks every Execute until the context is
// cancelled — the shape of a query that exceeds its session deadline.
type slowEngine struct{}

func (slowEngine) Name() string { return "slow" }

func (slowEngine) ImportFile(ctx context.Context, name, path string) (engine.ImportStats, error) {
	return engine.ImportStats{Docs: 1}, nil
}

func (slowEngine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (engine.ExecStats, error) {
	<-ctx.Done()
	return engine.ExecStats{}, ctx.Err()
}

func (slowEngine) Reset() error { return nil }
func (slowEngine) Close() error { return nil }

var slowSystem = System{Name: "slow", New: func(string, int) (engine.Engine, error) {
	return slowEngine{}, nil
}}

// TestRunSessionTimeoutTrace is the hang-vs-timeout regression: a query that
// exceeds the deadline must return promptly with a timeout trace event, not
// block the harness.
func TestRunSessionTimeoutTrace(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Timeout = 50 * time.Millisecond
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	cfg.Obs = obs.Scope{Metrics: reg, Trace: obs.NewRecorder(&buf)}
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ds, err := env.Twitter()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := ds.generate(core.Options{Seed: 1, Preset: core.Expert})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan SessionRecord, 1)
	go func() { done <- env.run(context.Background(), env.unit(slowSystem, 0, ds, sess)) }()
	var res SessionRecord
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the session hung on a query exceeding its deadline")
	}
	if !res.TimedOut {
		t.Fatalf("session did not report timeout: %+v", res)
	}

	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var sawStart, sawTimeout, sawEnd bool
	for _, e := range events {
		switch e.Type {
		case obs.EvSessionStart:
			sawStart = true
		case obs.EvTimeout:
			sawTimeout = true
			if e.Query != "q1" {
				t.Errorf("timeout event query = %q, want q1", e.Query)
			}
		case obs.EvSessionEnd:
			sawEnd = true
			if !e.TimedOut {
				t.Errorf("session_end not flagged timed_out: %+v", e)
			}
		}
	}
	if !sawStart || !sawTimeout || !sawEnd {
		t.Errorf("missing events (start=%v timeout=%v end=%v) in %d events",
			sawStart, sawTimeout, sawEnd, len(events))
	}
	if got := reg.Counter("harness.timeouts").Value(); got != 1 {
		t.Errorf("harness.timeouts = %d, want 1", got)
	}
}

// TestSessionTraceDurationsSum is the acceptance check of the trace format:
// the per-query dur_ns values of one session must sum exactly to the
// session_end duration (both carry the engine-reported query times), and
// the session record, which keeps whole microseconds per query, must sum
// the same times truncated.
func TestSessionTraceDurationsSum(t *testing.T) {
	cfg := tinyConfig(t)
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	cfg.Obs = obs.Scope{Metrics: reg, Trace: obs.NewRecorder(&buf)}
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ds, err := env.Twitter()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := ds.generate(core.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res := env.run(context.Background(), env.unit(Systems["joda"], 0, ds, sess))
	if res.Err() != nil || res.Error != "" {
		t.Fatalf("session failed: %+v", res)
	}

	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var queries int
	var execSum, execSumUS time.Duration
	var end *obs.Event
	for i, e := range events {
		switch e.Type {
		case obs.EvQueryExecute:
			queries++
			execSum += e.Duration
			execSumUS += e.Duration.Truncate(time.Microsecond)
		case obs.EvSessionEnd:
			end = &events[i]
		}
	}
	if queries != len(sess.Queries) {
		t.Errorf("trace has %d query_execute events, session has %d queries", queries, len(sess.Queries))
	}
	if end == nil {
		t.Fatal("no session_end event")
	}
	if end.Duration != execSum || execSumUS != res.Total() {
		t.Errorf("durations disagree: query sum %v, session_end %v, result %v (want %v)",
			execSum, end.Duration, res.Total(), execSumUS)
	}
	// The metrics side must agree with the trace side.
	snap := reg.Snapshot()
	if got := snap.Counters["engine.JODA.queries"]; got != int64(queries) {
		t.Errorf("engine.JODA.queries = %d, want %d", got, queries)
	}
	if hist := snap.Histograms["engine.JODA.query"]; hist.Count != int64(queries) || hist.Sum != execSum {
		t.Errorf("engine.JODA.query histogram = %+v, want count %d sum %v", hist, queries, execSum)
	}
	if snap.Histograms["harness.session"].Sum != execSum {
		t.Errorf("harness.session sum = %v, want %v", snap.Histograms["harness.session"].Sum, execSum)
	}
}

// TestExperimentsWithObsScope runs a full experiment with observability on
// and checks the cross-cutting wiring: cache events from jodasim, import
// events from every engine, and a parseable stream.
func TestExperimentsWithObsScope(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (tiny) experiment")
	}
	cfg := tinyConfig(t)
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	cfg.Obs = obs.Scope{Metrics: reg, Trace: obs.NewRecorder(&buf)}
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	exp, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background(), env); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Obs.Trace.Err(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byType := map[string]int{}
	for _, e := range events {
		byType[e.Type]++
	}
	for _, typ := range []string{obs.EvSessionStart, obs.EvSessionEnd, obs.EvImport, obs.EvQueryExecute} {
		if byType[typ] == 0 {
			t.Errorf("no %s events in trace (%v)", typ, byType)
		}
	}
	if byType[obs.EvSessionStart] != byType[obs.EvSessionEnd] {
		t.Errorf("unbalanced sessions: %d starts, %d ends", byType[obs.EvSessionStart], byType[obs.EvSessionEnd])
	}
	snap := reg.Snapshot()
	for _, name := range []string{"engine.JODA.queries", "engine.MongoDB.queries", "engine.PostgreSQL.queries", "engine.jq.queries"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s missing (have %v)", name, reg.Names())
		}
	}
	if snap.Counters["harness.sessions"] == 0 {
		t.Errorf("harness.sessions not incremented")
	}
}
