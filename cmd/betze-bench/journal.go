package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"github.com/joda-explore/betze/internal/jobqueue"
)

// ErrJournalMismatch reports a -resume against a journal whose run was
// started under a different configuration fingerprint.
var ErrJournalMismatch = errors.New("journal written by a different configuration")

// runJob is a betze-bench run kept as the one job of a jobqueue journal,
// the format betze-web's campaigns use: the job's payload is the
// configuration fingerprint, and its checkpoints are the run's completed
// sessions and experiments.
type runJob struct {
	q    *jobqueue.Queue
	snap jobqueue.Snapshot
}

// openRunJob opens (or creates) the run journal in dir and returns its job,
// submitting one to a journal that holds none and claiming one that is not
// done yet. A job submitted under another fingerprint is ErrJournalMismatch.
func openRunJob(ctx context.Context, dir string, opts jobqueue.Options, fingerprint string) (*runJob, error) {
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
	if err := r.start(ctx, fingerprint); err != nil {
		q.Close()
		return nil, err
	}
	return r, nil
}

func (r *runJob) start(ctx context.Context, fingerprint string) (err error) {
	switch jobs := r.q.List(); len(jobs) {
	case 0:
		r.snap, err = r.q.Submit("betze-bench", json.RawMessage(fingerprint))
		if err != nil {
			return err
		}
	case 1:
		if r.snap = jobs[0]; string(r.snap.Payload) != fingerprint {
			return fmt.Errorf("%w (journal: %s, flags: %s)", ErrJournalMismatch, r.snap.Payload, fingerprint)
		}
	default:
		return fmt.Errorf("journal holds %d jobs, a betze-bench run holds one", len(jobs))
	}
	switch r.snap.State {
	case jobqueue.StateDone:
		return nil // every experiment replays from its checkpoint
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
