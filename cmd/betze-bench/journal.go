package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"github.com/joda-explore/betze/internal/jobqueue"
)

// runJob is a betze-bench run kept as the one job of a jobqueue journal,
// the format betze-web's campaigns use: its checkpoints are the run's
// completed sessions, each keyed by what it computes, so the job needs no
// payload beyond a constant and a resume under any flags replays exactly
// the sessions the journal already holds.
type runJob struct {
	q    *jobqueue.Queue
	snap jobqueue.Snapshot
}

// openRunJob opens (or creates) the run journal in dir and returns its job,
// submitting one to a journal that holds none and claiming one that is not
// done yet.
func openRunJob(ctx context.Context, dir string, opts jobqueue.Options) (*runJob, error) {
	// Open fails a job claimed MaxAttempts times as a poison pill, and
	// every resume claims the run's job once more. A run may be killed and
	// resumed any number of times, each resume asked for, so the bound
	// must be one no run reaches.
	opts.MaxAttempts = math.MaxInt
	q, err := jobqueue.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	r := &runJob{q: q}
	if err := r.start(ctx); err != nil {
		q.Close()
		return nil, err
	}
	return r, nil
}

func (r *runJob) start(ctx context.Context) (err error) {
	switch jobs := r.q.List(); len(jobs) {
	case 0:
		r.snap, err = r.q.Submit("betze-bench", json.RawMessage(`{}`))
		if err != nil {
			return err
		}
	case 1:
		r.snap = jobs[0]
	default:
		return fmt.Errorf("journal holds %d jobs, a betze-bench run holds one", len(jobs))
	}
	switch r.snap.State {
	case jobqueue.StateDone:
		return nil // a done job still takes the checkpoints of new sessions
	case jobqueue.StateQueued:
		if r.snap, err = r.q.Claim(ctx); err != nil {
			return err
		}
		return r.q.Running(r.snap.ID, nil)
	}
	return fmt.Errorf("journal's run is %s: %s", r.snap.State, r.snap.Error)
}

// checkpoints is the job's checkpoint window, for harness.Env.
func (r *runJob) checkpoints() *jobqueue.Checkpoints {
	return r.q.Checkpoints(r.snap.ID)
}

// finish marks a completed run done and releases a failed or interrupted
// one, so -resume picks it up again, then closes the journal. A job done
// before stays so.
func (r *runJob) finish(runErr error) error {
	var err error
	switch {
	case r.snap.State == jobqueue.StateDone:
	case runErr == nil:
		err = r.q.Done(r.snap.ID)
	default:
		err = r.q.Release(r.snap.ID)
	}
	return errors.Join(err, r.q.Close())
}
