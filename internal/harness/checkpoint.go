package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/runlog"
)

// This file is the durability layer above the runlog write-ahead journal:
// every completed work unit (a session on one engine, a whole experiment) is
// appended as one JSON record, and a resumed run replays the journal to skip
// work it already holds. Session generation is deterministic per seed, so
// the same configuration always enumerates the same work keys — the skip set
// of a resume is exactly the completed prefix of the interrupted run.

// ErrJournalMismatch reports a -resume against a journal whose recorded
// configuration fingerprint differs from the current run's.
var ErrJournalMismatch = errors.New("harness: journal written by a different configuration")

// ErrBadJournalRecord reports a journal payload that is not a valid
// checkpoint record (foreign journal, or corruption the checksum missed).
var ErrBadJournalRecord = errors.New("harness: malformed journal record")

// WorkKey identifies one journaled session execution. Occurrence
// disambiguates repeats of the same (experiment, engine, dataset, seed)
// tuple — Fig. 9 runs the identical JODA session once per thread count, and
// the resilience experiment sweeps fault rates over one session. Repeats are
// counted per identity, so experiments that iterate datasets in map order
// still produce a stable key for every unit.
type WorkKey struct {
	Experiment string `json:"experiment"`
	Engine     string `json:"engine"`
	Dataset    string `json:"dataset"`
	Seed       int64  `json:"seed"`
	Occurrence int    `json:"occurrence"`
}

func (k WorkKey) String() string {
	return fmt.Sprintf("%s/%s/%s/seed%d#%d", k.Experiment, k.Engine, k.Dataset, k.Seed, k.Occurrence)
}

// workIdentity is a WorkKey without the occurrence — the map key of the
// per-identity repeat counters.
type workIdentity struct {
	experiment, engine, dataset string
	seed                        int64
}

// Journal record types.
const (
	recRunStart      = "run_start"
	recExperimentBeg = "experiment_start"
	recSession       = "session"
	recExperimentEnd = "experiment_end"
	recRunEnd        = "run_end"
)

// journalRecord is the JSON payload of one runlog record.
type journalRecord struct {
	Type string `json:"type"`
	// Fingerprint is the canonical configuration fingerprint (run_start).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Experiment is the experiment ID (experiment_start/experiment_end).
	Experiment string `json:"experiment,omitempty"`
	// Key identifies a session record.
	Key *WorkKey `json:"key,omitempty"`
	// Session is the journaled session result.
	Session *sessionRecord `json:"session,omitempty"`
	// Result is the full experiment result (experiment_end), so a resumed
	// run re-exports completed experiments byte-identically without
	// re-running them.
	Result *Result `json:"result,omitempty"`
}

// sessionRecord mirrors SessionResult with errors flattened to strings —
// errors survive the JSON round trip as text, and the render layer only
// branches on their nil-ness.
type sessionRecord struct {
	Engine     string             `json:"engine"`
	Import     engine.ImportStats `json:"import"`
	QueryTimes []time.Duration    `json:"query_times,omitempty"`
	Total      time.Duration      `json:"total"`
	Wall       time.Duration      `json:"wall"`
	TimedOut   bool               `json:"timed_out,omitempty"`
	ImportErr  string             `json:"import_err,omitempty"`
	Err        string             `json:"err,omitempty"`
	Retries    int                `json:"retries,omitempty"`
	Skipped    int                `json:"skipped,omitempty"`
	Recovered  int                `json:"recovered,omitempty"`
}

func toSessionRecord(r SessionResult) *sessionRecord {
	rec := &sessionRecord{
		Engine: r.Engine, Import: r.Import, QueryTimes: r.QueryTimes,
		Total: r.Total, Wall: r.Wall, TimedOut: r.TimedOut,
		Retries: r.Retries, Skipped: r.Skipped, Recovered: r.Recovered,
	}
	if r.ImportErr != nil {
		rec.ImportErr = r.ImportErr.Error()
	}
	if r.Err != nil {
		rec.Err = r.Err.Error()
	}
	return rec
}

func (rec *sessionRecord) toResult() SessionResult {
	r := SessionResult{
		Engine: rec.Engine, Import: rec.Import, QueryTimes: rec.QueryTimes,
		Total: rec.Total, Wall: rec.Wall, TimedOut: rec.TimedOut,
		Retries: rec.Retries, Skipped: rec.Skipped, Recovered: rec.Recovered,
	}
	if rec.ImportErr != "" {
		r.ImportErr = errors.New(rec.ImportErr)
	}
	if rec.Err != "" {
		r.Err = errors.New(rec.Err)
	}
	return r
}

// RunJournal appends checkpoint records to a runlog writer as work units
// complete. It is safe for concurrent use; like the trace recorder, the
// first append failure is retained and later appends become no-ops, so a
// full disk degrades durability instead of crashing the benchmark.
type RunJournal struct {
	mu  sync.Mutex
	w   *runlog.Writer
	obs obs.Scope
	err error
}

// NewRunJournal wraps a runlog writer. Checkpoint appends and their
// failures are reported through scope.
func NewRunJournal(w *runlog.Writer, scope obs.Scope) *RunJournal {
	return &RunJournal{w: w, obs: scope}
}

// append marshals and durably appends one record (fsync per work unit).
func (j *RunJournal) append(rec journalRecord) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		j.err = fmt.Errorf("harness: encoding journal record: %w", err)
		return
	}
	// The mutex exists precisely to serialise appends: every writer must
	// queue behind the fsync, and the journal has no other critical section
	// to stall. Holding it across AppendSync is the design, not an accident.
	if err := j.w.AppendSync(payload); err != nil {
		j.err = fmt.Errorf("harness: appending journal record: %w", err)
		return
	}
	j.obs.Counter(obs.MRunlogAppends).Inc()
}

// RunStart records the configuration fingerprint opening this run (or
// resume generation — a resumed journal holds one run_start per attempt,
// all with the same fingerprint).
func (j *RunJournal) RunStart(fingerprint string) {
	j.append(journalRecord{Type: recRunStart, Fingerprint: fingerprint})
}

// BeginExperiment records an experiment starting.
func (j *RunJournal) BeginExperiment(id string) {
	j.append(journalRecord{Type: recExperimentBeg, Experiment: id})
}

// Session checkpoints one completed session execution.
func (j *RunJournal) Session(key WorkKey, res SessionResult) {
	if j == nil {
		return
	}
	j.append(journalRecord{Type: recSession, Key: &key, Session: toSessionRecord(res)})
	j.obs.Record(obs.Event{
		Type: obs.EvCheckpoint, Kind: obs.KindSession, Engine: key.Engine,
		Dataset: key.Dataset, Session: key.String(),
	})
}

// EndExperiment checkpoints a completed experiment with its full result.
func (j *RunJournal) EndExperiment(id string, res *Result) {
	if j == nil {
		return
	}
	j.append(journalRecord{Type: recExperimentEnd, Experiment: id, Result: res})
	j.obs.Record(obs.Event{Type: obs.EvCheckpoint, Kind: obs.KindExperiment, Session: id})
}

// RunEnd records the run completing every requested experiment.
func (j *RunJournal) RunEnd() {
	j.append(journalRecord{Type: recRunEnd})
}

// Err reports the first append failure the journal suppressed, if any.
func (j *RunJournal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close syncs and closes the journal.
func (j *RunJournal) Close() error {
	if j == nil {
		return nil
	}
	if err := j.w.Close(); err != nil {
		return err
	}
	return j.Err()
}

// Replay is the parsed state of a recovered journal: which sessions and
// experiments already completed, keyed for deterministic skipping.
type Replay struct {
	fingerprint string
	sessions    map[WorkKey]SessionResult
	experiments map[string]*Result
	records     int
}

// NewReplay parses recovered journal records. All run_start fingerprints in
// the journal must agree (each resume generation re-records it); a payload
// that does not parse as a checkpoint record wraps ErrBadJournalRecord.
func NewReplay(rec *runlog.Recovery) (*Replay, error) {
	rp := &Replay{
		sessions:    make(map[WorkKey]SessionResult),
		experiments: make(map[string]*Result),
		records:     len(rec.Records),
	}
	for i, payload := range rec.Records {
		var jr journalRecord
		if err := json.Unmarshal(payload, &jr); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadJournalRecord, i, err)
		}
		switch jr.Type {
		case recRunStart:
			if rp.fingerprint == "" {
				rp.fingerprint = jr.Fingerprint
			} else if jr.Fingerprint != rp.fingerprint {
				return nil, fmt.Errorf("%w: record %d changes the fingerprint", ErrJournalMismatch, i)
			}
		case recSession:
			if jr.Key == nil || jr.Session == nil {
				return nil, fmt.Errorf("%w: record %d: session without key or body", ErrBadJournalRecord, i)
			}
			rp.sessions[*jr.Key] = jr.Session.toResult()
		case recExperimentEnd:
			if jr.Result == nil {
				return nil, fmt.Errorf("%w: record %d: experiment_end without result", ErrBadJournalRecord, i)
			}
			rp.experiments[jr.Experiment] = jr.Result
		case recExperimentBeg, recRunEnd:
			// Markers only; carry no replayable state.
		default:
			return nil, fmt.Errorf("%w: record %d: unknown type %q", ErrBadJournalRecord, i, jr.Type)
		}
	}
	return rp, nil
}

// Fingerprint returns the configuration fingerprint the journal was written
// under (empty for an empty journal).
func (rp *Replay) Fingerprint() string { return rp.fingerprint }

// Records returns how many journal records were replayed.
func (rp *Replay) Records() int { return rp.records }

// Sessions returns how many completed sessions the journal holds.
func (rp *Replay) Sessions() int { return len(rp.sessions) }

// ExperimentResult returns the journaled result of a completed experiment.
func (rp *Replay) ExperimentResult(id string) (*Result, bool) {
	if rp == nil {
		return nil, false
	}
	res, ok := rp.experiments[id]
	return res, ok
}

// SessionResult returns the journaled result of a completed session.
func (rp *Replay) SessionResult(key WorkKey) (SessionResult, bool) {
	if rp == nil {
		return SessionResult{}, false
	}
	res, ok := rp.sessions[key]
	return res, ok
}

// SetJournal attaches a checkpoint journal and an optional replay of a
// prior interrupted run to the environment. With a journal, every completed
// session and experiment is appended durably; with a replay, work units the
// journal already holds are skipped and their journaled results returned.
func (e *Env) SetJournal(j *RunJournal, rp *Replay) {
	e.journal = j
	e.replay = rp
}

// RunExperiment executes one experiment under checkpointing: a completed
// experiment found in the replay is returned without running (resumed=true),
// otherwise the experiment runs with session-granular journaling and its
// result is checkpointed on success. An experiment whose context ends while
// it runs (Ctrl-C) returns the context's error and is not checkpointed: its
// sessions failed because of the interruption, not because of the engines,
// and a resume must re-run them.
func (e *Env) RunExperiment(ctx context.Context, exp Experiment) (res *Result, resumed bool, err error) {
	if e.replay != nil {
		if res, ok := e.replay.ExperimentResult(exp.ID); ok {
			e.Cfg.Obs.Record(obs.Event{Type: obs.EvResumeSkip, Kind: obs.KindExperiment, Session: exp.ID})
			e.Cfg.Obs.Counter(obs.MHarnessResumeSkips).Inc()
			return res, true, nil
		}
	}
	e.beginExperiment(exp.ID)
	defer e.beginExperiment("")
	e.journal.BeginExperiment(exp.ID)
	res, err = exp.Run(ctx, e)
	if err != nil {
		return nil, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, false, fmt.Errorf("harness: %s interrupted: %w", exp.ID, err)
	}
	e.journal.EndExperiment(exp.ID, res)
	return res, false, nil
}

// beginExperiment scopes subsequent session keys to an experiment and
// resets the per-identity repeat counters.
func (e *Env) beginExperiment(id string) {
	e.keyMu.Lock()
	e.curExperiment = id
	e.occurrences = make(map[workIdentity]int)
	e.keyMu.Unlock()
}

// nextKey assigns the work key for a session execution about to run. The
// second return is false when the environment is not running under
// RunExperiment-with-checkpointing, in which case sessions are not tracked.
func (e *Env) nextKey(engineName, dataset string, seed int64) (WorkKey, bool) {
	if e.journal == nil && e.replay == nil {
		return WorkKey{}, false
	}
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	if e.curExperiment == "" {
		return WorkKey{}, false
	}
	id := workIdentity{experiment: e.curExperiment, engine: engineName, dataset: dataset, seed: seed}
	occ := e.occurrences[id]
	e.occurrences[id] = occ + 1
	return WorkKey{
		Experiment: id.experiment, Engine: id.engine, Dataset: id.dataset,
		Seed: id.seed, Occurrence: occ,
	}, true
}

// DetImportDuration derives a deterministic stand-in for a measured import
// duration from the import's deterministic work counters (DetTiming mode).
// Exported for the service layer (betze-web campaigns), whose byte-identical
// crash-resume artifacts need the same timing substitution.
func DetImportDuration(imp engine.ImportStats) time.Duration {
	return time.Duration(imp.Docs+1) * time.Microsecond
}

// DetQueryDuration derives a deterministic stand-in for a measured query
// duration from the execution's deterministic work counters (DetTiming
// mode): scanning dominates, returning documents costs extra.
func DetQueryDuration(st engine.ExecStats) time.Duration {
	return time.Duration(1+st.Scanned+2*st.Returned) * time.Microsecond
}
