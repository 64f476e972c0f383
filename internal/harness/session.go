package harness

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/jodasim"
	"github.com/joda-explore/betze/internal/engine/jqsim"
	"github.com/joda-explore/betze/internal/engine/mongosim"
	"github.com/joda-explore/betze/internal/engine/pgsim"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
)

// System is one engine of the paper's line-up: its display name in result
// tables and a constructor for a fresh, cache-cold instance. dir holds
// engine-private scratch files ("" = the OS temp dir); threads sizes JODA's
// worker pool (0 = all CPUs).
type System struct {
	Name string
	New  func(dir string, threads int) (engine.Engine, error)
}

// Systems is the engine line-up, keyed by the `betze run -systems` names,
// which betze-web campaigns accept too. jq gets a private subdirectory of
// dir, removed on Close with every store file the session left.
var Systems = map[string]System{
	"joda": {"JODA", func(_ string, t int) (engine.Engine, error) { return jodasim.New(jodasim.Options{Threads: t}), nil }},
	"joda-evicted": {"JODA memory evicted", func(_ string, t int) (engine.Engine, error) {
		return jodasim.New(jodasim.Options{Threads: t, Evict: true}), nil
	}},
	"mongodb":  {"MongoDB", func(string, int) (engine.Engine, error) { return mongosim.New(mongosim.Options{}), nil }},
	"postgres": {"PostgreSQL", func(string, int) (engine.Engine, error) { return pgsim.New(pgsim.Options{}), nil }},
	"jq":       {"jq", func(dir string, _ int) (engine.Engine, error) { return jqsim.NewTempIn(dir) }},
}

// SystemNames returns the keys of Systems, sorted and comma-separated, for
// usage and error messages.
func SystemNames() string {
	names := make([]string, 0, len(Systems))
	for name := range Systems {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Import names one dataset file a session imports before its queries.
type Import struct {
	Name, Path string
}

// SessionRecord is the result of one session on one engine — the unit the
// experiments render, the run journal checkpoints, `betze run` prints and
// betze-web campaigns publish. Errors are flattened to strings so the
// record survives a JSON round trip unchanged.
type SessionRecord struct {
	Engine string `json:"engine"`
	Seed   int64  `json:"seed"`
	// Import sums the session's imports; it stays zero when one failed.
	Import ImportRecord `json:"import"`
	// Queries holds one entry per attempted query, in session order.
	Queries []QueryRecord `json:"queries"`
	// Completed and Skipped count queries that finished and that were
	// recorded as failed and passed over.
	Completed int `json:"completed"`
	Skipped   int `json:"skipped"`
	// Retries counts re-attempted operations: imports and queries.
	Retries int `json:"retries"`
	// Error is the import failure; query failures live on their entries.
	Error string `json:"error,omitempty"`
	// Recovered counts crash recoveries that replayed the stored-dataset
	// lineage mid-session.
	Recovered int `json:"recovered,omitempty"`
	// TimedOut is set when the session deadline expired.
	TimedOut bool `json:"timed_out,omitempty"`

	// Imports holds each completed import's stats in order; only the sum
	// is persisted.
	Imports []engine.ImportStats `json:"-"`
}

// ImportRecord is the import part of a SessionRecord.
type ImportRecord struct {
	Docs       int64 `json:"docs"`
	Bytes      int64 `json:"bytes"`
	DurationUS int64 `json:"duration_us"`
}

// QueryRecord is one query of a SessionRecord. The counters and duration
// are zero for a query that failed.
type QueryRecord struct {
	ID         string `json:"id"`
	Scanned    int64  `json:"scanned"`
	Matched    int64  `json:"matched"`
	Returned   int64  `json:"returned"`
	DurationUS int64  `json:"duration_us"`
	Error      string `json:"error,omitempty"`
	Skipped    bool   `json:"skipped,omitempty"`
}

// QueryTimes returns the durations of the queries that succeeded.
func (r SessionRecord) QueryTimes() []time.Duration {
	var times []time.Duration
	for _, q := range r.Queries {
		if q.Error == "" {
			times = append(times, time.Duration(q.DurationUS)*time.Microsecond)
		}
	}
	return times
}

// Total is the sum of successful query times (the paper's "w/o import").
func (r SessionRecord) Total() time.Duration {
	var total time.Duration
	for _, d := range r.QueryTimes() {
		total += d
	}
	return total
}

// Wall adds the import to Total (the paper's wall clock time).
func (r SessionRecord) Wall() time.Duration {
	return r.Total() + time.Duration(r.Import.DurationUS)*time.Microsecond
}

// Err returns the first query failure, or nil.
func (r SessionRecord) Err() error {
	for _, q := range r.Queries {
		if q.Error != "" {
			return fmt.Errorf("%s on %s: %s", q.ID, r.Engine, q.Error)
		}
	}
	return nil
}

// DetTiming replaces every measured duration with a deterministic function
// of the record's own work counters: an import costs a microsecond per
// document, a query one per scanned document plus two per returned one.
// Two runs of the same configuration then produce byte-identical records.
func (r *SessionRecord) DetTiming() {
	if r.Error == "" {
		r.Import.DurationUS = r.Import.Docs + 1
	}
	for i := range r.Queries {
		if q := &r.Queries[i]; q.Error == "" {
			q.DurationUS = 1 + q.Scanned + 2*q.Returned
		}
	}
}

// RunSession executes one session on eng: it imports every dataset in
// order with RunImport, stopping at the first failure, then runs the
// queries with RunQueries. The obs scope of ctx receives session_start and
// session_end around it (plus timeout, retry, skip and recovery events as
// they occur); label tags those events, and session_end carries the first
// query error. The caller owns eng, its deadline and the record's Engine and
// Seed, which default to eng.Name() and 0. A session without imports runs
// on data eng already holds; its events name the first query's dataset.
func RunSession(ctx context.Context, eng engine.Engine, imports []Import, queries []*query.Query, pol RetryPolicy, label string) SessionRecord {
	rec := SessionRecord{Engine: eng.Name()}
	sc := obs.From(ctx)
	var names []string
	for _, imp := range imports {
		names = append(names, imp.Name)
	}
	if len(imports) == 0 && len(queries) > 0 {
		names = append(names, queries[0].Base)
	}
	dataset := strings.Join(names, ",")
	// The bracketing events carry eng.Name(), the label the engine's own
	// import and query events use, so consumers can join them.
	sc.Record(obs.Event{
		Type: obs.EvSessionStart, Engine: eng.Name(), Dataset: dataset,
		Session: label, Queries: len(queries),
	})
	// total is the exact sum of the engine-reported query times, so the
	// session_end duration equals the sum of the query_execute durations.
	var total time.Duration
	defer func() {
		ev := obs.Event{
			Type: obs.EvSessionEnd, Engine: eng.Name(), Dataset: dataset,
			Session: label, Duration: total, TimedOut: rec.TimedOut,
		}
		if err := rec.Err(); err != nil {
			ev.Err = err.Error()
		}
		sc.Record(ev)
		sc.Observe(obs.MHarnessSession, total)
		sc.Counter(obs.MHarnessSessions).Inc()
	}()

	for _, imp := range imports {
		st, retries, err := RunImport(ctx, eng, imp.Name, imp.Path, pol)
		rec.Retries += retries
		if err != nil {
			if ctx.Err() != nil {
				rec.TimedOut = true
				sc.Record(obs.Event{
					Type: obs.EvTimeout, Engine: eng.Name(), Dataset: imp.Name, Session: label,
				})
				sc.Counter(obs.MHarnessTimeouts).Inc()
			}
			rec.Import = ImportRecord{}
			rec.Error = fmt.Sprintf("import: %v", err)
			return rec
		}
		rec.Imports = append(rec.Imports, st)
		rec.Import.Docs += st.Docs
		rec.Import.Bytes += st.Bytes
		rec.Import.DurationUS += st.Duration.Microseconds()
	}

	outcomes, rs := RunQueries(ctx, eng, queries, pol, io.Discard, label)
	for _, o := range outcomes {
		q := QueryRecord{ID: o.Query.ID, Skipped: o.Skipped}
		if o.Err != nil {
			q.Error = o.Err.Error()
		} else {
			q.Scanned, q.Matched, q.Returned = o.Stats.Scanned, o.Stats.Matched, o.Stats.Returned
			q.DurationUS = o.Stats.Duration.Microseconds()
			total += o.Stats.Duration
		}
		rec.Queries = append(rec.Queries, q)
	}
	rec.Completed, rec.Skipped, rec.Recovered = rs.Completed, rs.Skipped, rs.Recovered
	rec.Retries += rs.Retries
	rec.TimedOut = rs.TimedOut
	return rec
}
