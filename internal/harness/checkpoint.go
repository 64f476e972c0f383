package harness

import (
	"context"
	"fmt"

	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/obs"
)

// This file checkpoints experiments through the checkpoints of a jobqueue
// job, the journal betze-web's campaigns use: every completed session is
// saved under "<experiment>/<Unit.Key>", and a resumed run loads what an
// earlier attempt saved instead of running it again. A session's key is
// derived from what it computes, so the same configuration always produces
// the same keys and a changed flag produces different ones. An experiment
// itself is never saved: on resume it runs again, its sessions replayed
// from their checkpoints.

// SetCheckpoints attaches the checkpoints of the job this environment's
// experiments run as. Every completed session is then saved, and a session
// an earlier attempt saved is loaded instead of run. A nil cp tracks
// nothing.
func (e *Env) SetCheckpoints(cp *jobqueue.Checkpoints) {
	e.cp = cp
}

// CheckpointErr reports the first checkpoint that could not be saved. A
// failed save does not stop the run, whose results are still correct; it
// only leaves a resume less to skip. Later saves are not attempted.
func (e *Env) CheckpointErr() error { return e.cpErr }

// RunExperiment executes one experiment with session-granular checkpoints.
// An experiment whose context ends while it runs (Ctrl-C) returns the
// context's error: its sessions failed because of the interruption, not
// because of the engines, and none of them was saved. A checkpoint that
// does not decode stops the experiment the same way.
func (e *Env) RunExperiment(ctx context.Context, exp Experiment) (*Result, error) {
	ctx, abort := context.WithCancelCause(ctx)
	defer abort(nil)
	e.beginExperiment(exp.ID, abort)
	defer e.beginExperiment("", nil)
	res, err := exp.Run(ctx, e)
	if ctx.Err() != nil {
		return nil, fmt.Errorf("harness: %s interrupted: %w", exp.ID, context.Cause(ctx))
	}
	return res, err
}

// beginExperiment scopes subsequent session keys to an experiment and sets
// what stops the experiment when one of its checkpoints does not decode.
func (e *Env) beginExperiment(id string, abort context.CancelCauseFunc) {
	e.curExperiment, e.abort = id, abort
}

// run executes u, checkpointed under the running experiment when the
// environment has checkpoints. A checkpoint that does not decode stops the
// experiment; a failed save is kept for CheckpointErr, and no later save is
// attempted. A session that hit only its own Timeout, not the end of ctx, is
// a genuine result and is checkpointed.
func (e *Env) run(ctx context.Context, u Unit) SessionRecord {
	ctx = obs.With(ctx, e.Cfg.Obs)
	if e.cp == nil || e.cpErr != nil || e.curExperiment == "" {
		return u.Run(ctx)
	}
	rec, resumed, err := RunUnit(ctx, e.cp, e.curExperiment+"/"+u.Key(), u)
	switch {
	case err != nil && resumed:
		e.abort(err)
		return SessionRecord{Engine: u.System.Name, Seed: u.Seed, Error: err.Error()}
	case err != nil:
		e.cpErr = fmt.Errorf("harness: %w", err)
	}
	return rec
}
