package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/obs"
)

// This file checkpoints experiments through the checkpoints of a jobqueue
// job, the journal betze-web's campaigns use: every completed work unit (a
// session on one engine, a whole experiment) is saved under its own key,
// and a resumed run loads what an earlier attempt saved instead of running
// it again. Session generation is deterministic per seed, so the same
// configuration always enumerates the same work keys — the skip set of a
// resume is exactly the completed prefix of the interrupted run.

// WorkKey identifies one checkpointed session execution. Occurrence
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

// resultKey is the checkpoint key of a finished experiment's Result. Every
// session key ends in "#<occurrence>", so "#result" never names a session.
func resultKey(id string) string { return id + "#result" }

// SetCheckpoints attaches the checkpoints of the job this environment's
// experiments run as. Every completed session and experiment is then saved,
// and a unit an earlier attempt saved is loaded instead of run. A nil cp
// tracks nothing.
func (e *Env) SetCheckpoints(cp *jobqueue.Checkpoints) {
	e.cp = cp
}

// CheckpointErr reports the first checkpoint that could not be saved. A
// failed save does not stop the run, whose results are still correct; it
// only leaves a resume less to skip. Later saves are not attempted.
func (e *Env) CheckpointErr() error { return e.cpErr }

// load decodes the checkpoint saved under key into v, and reports whether
// there was one. A checkpoint that does not decode strictly — one carrying
// a field this version does not write, such as a session in the record
// shape before SessionRecord — is an error: replaying it would report a
// result nothing measured.
func (e *Env) load(key string, v any) (bool, error) {
	data, ok := e.cp.Load(key)
	if !ok {
		return false, nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return true, fmt.Errorf("checkpoint %s: %w", key, err)
	}
	if dec.More() {
		return true, fmt.Errorf("checkpoint %s: trailing data", key)
	}
	return true, nil
}

// save checkpoints v under key and reports whether it did. The first
// failure is kept for CheckpointErr, and no save is attempted after it.
func (e *Env) save(key string, v any) bool {
	if e.cpErr != nil {
		return false
	}
	data, err := json.Marshal(v)
	if err == nil {
		err = e.cp.Save(key, data)
	}
	if err != nil {
		e.cpErr = fmt.Errorf("harness: checkpoint %s: %w", key, err)
		return false
	}
	return true
}

// RunExperiment executes one experiment under checkpointing: a completed
// experiment found in the checkpoints is returned without running
// (resumed=true), otherwise the experiment runs with session-granular
// checkpoints and its result is saved on success. An experiment whose
// context ends while it runs (Ctrl-C) returns the context's error and saves
// nothing more: its sessions failed because of the interruption, not
// because of the engines, and a resume must re-run them. A checkpoint that
// does not decode stops the experiment the same way.
func (e *Env) RunExperiment(ctx context.Context, exp Experiment) (res *Result, resumed bool, err error) {
	key := resultKey(exp.ID)
	if e.cp != nil {
		res = new(Result)
		found, err := e.load(key, res)
		if err != nil {
			return nil, false, fmt.Errorf("harness: %w", err)
		}
		if found {
			e.Cfg.Obs.Record(obs.Event{Type: obs.EvResumeSkip, Kind: obs.KindExperiment, Session: exp.ID})
			e.Cfg.Obs.Counter(obs.MHarnessResumeSkips).Inc()
			return res, true, nil
		}
	}
	ctx, abort := context.WithCancelCause(ctx)
	defer abort(nil)
	e.beginExperiment(exp.ID, abort)
	defer e.beginExperiment("", nil)
	res, err = exp.Run(ctx, e)
	if ctx.Err() != nil {
		return nil, false, fmt.Errorf("harness: %s interrupted: %w", exp.ID, context.Cause(ctx))
	}
	if err != nil {
		return nil, false, err
	}
	if e.cp != nil && e.save(key, res) {
		e.Cfg.Obs.Record(obs.Event{Type: obs.EvCheckpoint, Kind: obs.KindExperiment, Session: exp.ID})
	}
	return res, false, nil
}

// beginExperiment scopes subsequent session keys to an experiment, resets
// the per-identity repeat counters, and sets what stops the experiment when
// one of its checkpoints does not decode.
func (e *Env) beginExperiment(id string, abort context.CancelCauseFunc) {
	e.curExperiment = id
	e.occurrences = make(map[workIdentity]int)
	e.abort = abort
}

// nextKey assigns the work key for a session execution about to run. The
// second return is false when the environment is not running under
// RunExperiment-with-checkpointing, in which case sessions are not tracked.
func (e *Env) nextKey(engineName, dataset string, seed int64) (WorkKey, bool) {
	if e.cp == nil || e.curExperiment == "" {
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
