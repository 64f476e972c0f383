package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Trace event types. One benchmark run emits a flat JSON-lines stream of
// these; consumers reconstruct sessions by pairing session_start/session_end
// and attributing the events in between.
const (
	// EvSessionStart opens one session execution on one engine.
	EvSessionStart = "session_start"
	// EvSessionEnd closes a session; Duration carries the summed query
	// time (the paper's "w/o import" number).
	EvSessionEnd = "session_end"
	// EvImport records one dataset import.
	EvImport = "import"
	// EvQueryTranslate records translating one session into one query
	// language.
	EvQueryTranslate = "query_translate"
	// EvQueryExecute records one query execution with its ExecStats.
	EvQueryExecute = "query_execute"
	// EvCacheHit marks a query (partially) served from a cached ancestor
	// result.
	EvCacheHit = "cache_hit"
	// EvCacheMiss marks a filtered query that found no cached ancestor.
	EvCacheMiss = "cache_miss"
	// EvEviction marks an engine dropping its parsed datasets.
	EvEviction = "eviction"
	// EvTimeout marks a session exceeding its deadline; Query names the
	// query that was cancelled mid-flight.
	EvTimeout = "timeout"
	// EvError records a failed import or execution.
	EvError = "error"
	// EvFault records an injected fault; Kind carries the fault kind and
	// Attempt the operation's attempt number.
	EvFault = "fault"
	// EvRetry records the resilient executor re-attempting a failed
	// operation; Attempt is the attempt that just failed.
	EvRetry = "retry"
	// EvSkip records a query abandoned after exhausting its attempts, or
	// short-circuited by an open circuit breaker (Kind: "breaker_open").
	EvSkip = "skip"
	// EvBreaker records a circuit-breaker transition; Kind is the new
	// state ("open", "closed").
	EvBreaker = "breaker"
	// EvRecovery records a crash recovery replaying the stored-dataset
	// lineage; Queries is the lineage length.
	EvRecovery = "recovery"
	// EvCheckpoint records a completed session appended to the run
	// journal; Session is its checkpoint key.
	EvCheckpoint = "checkpoint"
	// EvResumeSkip records a session skipped on resume because the
	// journal already holds its record under the key in Session.
	EvResumeSkip = "resume_skip"
	// EvJournalRecover records replaying a run journal; Records is the
	// record count and Err the truncation reason when a torn tail was
	// dropped.
	EvJournalRecover = "journal_recover"
	// EvScan records one completed scan-kernel pass; Kind is the execution
	// mode ("parallel", "sequential"), Scanned the item count and Workers
	// the worker goroutine count. Scan events carry no Duration: the
	// kernel is in the determinism lint scope and never reads the clock.
	EvScan = "scan"
)

// Event is one structured trace record. Zero-valued fields are omitted from
// the JSON line, so each event type only carries the fields it needs.
// Durations are serialised as integer nanoseconds (dur_ns), which makes
// summing per-query durations against the session total a one-liner in any
// consumer.
type Event struct {
	// Seq is a strictly increasing per-recorder sequence number,
	// assigned at Record time.
	Seq int64 `json:"seq"`
	// Time is the wall-clock timestamp, assigned at Record time.
	Time time.Time `json:"t"`
	// Type is one of the Ev* constants.
	Type string `json:"type"`

	Engine  string `json:"engine,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	Query   string `json:"query,omitempty"`
	// Session labels the session the event belongs to (e.g. "seed123/2").
	Session string `json:"session,omitempty"`
	// Lang is the target language of a query_translate event.
	Lang string `json:"lang,omitempty"`
	// Kind subtypes fault, skip, breaker and scan events (see each Ev*
	// constant for its kinds).
	Kind string `json:"kind,omitempty"`
	// Attempt is the zero-based attempt number of retry/fault events.
	Attempt int `json:"attempt,omitempty"`

	Docs     int64 `json:"docs,omitempty"`
	Bytes    int64 `json:"bytes,omitempty"`
	Scanned  int64 `json:"scanned,omitempty"`
	Matched  int64 `json:"matched,omitempty"`
	Returned int64 `json:"returned,omitempty"`
	// Queries is the session's query count on session_start.
	Queries int `json:"queries,omitempty"`
	// Records is the record count of a journal_recover event.
	Records int64 `json:"records,omitempty"`
	// Workers is the worker goroutine count of a scan event.
	Workers int `json:"workers,omitempty"`

	Duration time.Duration `json:"dur_ns,omitempty"`
	TimedOut bool          `json:"timed_out,omitempty"`
	Err      string        `json:"err,omitempty"`
}

// Recorder serialises events as JSON lines to a writer. It is safe for
// concurrent use (the multi-user harness records from many goroutines); the
// nil recorder discards everything.
type Recorder struct {
	mu  sync.Mutex
	w   io.Writer
	seq int64
	err error
	now func() time.Time
}

// NewRecorder returns a recorder writing JSON lines to w.
func NewRecorder(w io.Writer) *Recorder {
	return &Recorder{w: w, now: time.Now}
}

// SetClock replaces the recorder's time source (tests pin it for stable
// output).
func (r *Recorder) SetClock(now func() time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

// Record stamps the event with a sequence number and timestamp and writes
// it as one JSON line. The first write error is retained and every later
// Record becomes a no-op, so a full disk cannot corrupt a benchmark run
// mid-flight.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	r.seq++
	e.Seq = r.seq
	e.Time = r.now()
	data, err := json.Marshal(e)
	if err != nil {
		r.err = fmt.Errorf("obs: encoding trace event: %w", err)
		return
	}
	data = append(data, '\n')
	if _, err := r.w.Write(data); err != nil {
		r.err = fmt.Errorf("obs: writing trace event: %w", err)
	}
}

// Err reports the first failure the recorder suppressed, if any.
func (r *Recorder) Err() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// ReadEvents parses a JSON-lines trace stream back into events (the
// consumer side of the format, used by tests and analysis tooling).
func ReadEvents(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: decoding trace event %d: %w", len(out)+1, err)
		}
		out = append(out, e)
	}
}
