package jobqueue

import (
	"context"
	"fmt"
	"sync"
)

// Checkpoints is the executor's window onto one job's durable checkpoints:
// Save journals a completed work unit, Load answers "did a previous attempt
// already finish this unit?" — the resume contract that makes a requeued
// job idempotent.
type Checkpoints struct {
	q  *Queue
	id string
}

// Checkpoints returns the checkpoint window of job id, for an executor that
// runs the job outside a Pool.
func (q *Queue) Checkpoints(id string) *Checkpoints {
	return &Checkpoints{q: q, id: id}
}

// Save durably records one completed work unit under key.
func (c *Checkpoints) Save(key string, data []byte) error {
	return c.q.Checkpoint(c.id, key, data)
}

// Load returns the checkpoint a previous attempt saved under key, if any.
func (c *Checkpoints) Load(key string) ([]byte, bool) {
	return c.q.LoadCheckpoint(c.id, key)
}

// Executor runs one claimed job. It must honor ctx (cancelled on client
// cancellation and on pool drain) and should Save a checkpoint after each
// completed work unit so a later attempt resumes instead of redoing work.
// A nil return completes the job; ctx.Err() at return time means the run
// was interrupted, and any other error fails the attempt.
type Executor func(ctx context.Context, job Snapshot, cp *Checkpoints) error

// Pool runs a bounded set of workers claiming jobs from a Queue and feeding
// them to an Executor. Drain semantics: cancelling the pool context stops
// claiming immediately, cancels in-flight executors, and Releases their
// jobs back to the queue (journaled), so a restart resumes them from their
// checkpoints.
type Pool struct {
	q    *Queue
	exec Executor
	wg   sync.WaitGroup
}

// NewPool starts n workers (minimum 1) against q.
func NewPool(ctx context.Context, q *Queue, n int, exec Executor) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{q: q, exec: exec}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker(ctx)
	}
	return p
}

// Wait blocks until every worker has exited (after its context is
// cancelled or the queue starts draining) and in-flight jobs are released.
func (p *Pool) Wait() {
	p.wg.Wait()
}

func (p *Pool) worker(ctx context.Context) {
	defer p.wg.Done()
	for {
		job, err := p.q.Claim(ctx)
		if err != nil {
			return // ctx cancelled or queue draining
		}
		p.run(ctx, job)
	}
}

// run executes one claimed job and journals its outcome.
func (p *Pool) run(ctx context.Context, job Snapshot) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := p.q.Running(job.ID, cancel); err != nil {
		// The journal refused the transition; put the job back rather
		// than lose it.
		p.q.Release(job.ID)
		return
	}
	err := p.exec(jctx, job, p.q.Checkpoints(job.ID))
	switch {
	case p.q.CancelRequested(job.ID):
		p.q.Cancelled(job.ID)
	case err == nil:
		p.q.Done(job.ID)
	case ctx.Err() != nil:
		// Pool drain interrupted the executor: the job itself is fine,
		// so requeue it for the next process lifetime (or worker).
		p.q.Release(job.ID)
	default:
		p.q.Fail(job.ID, fmt.Errorf("attempt %d: %w", job.Attempt, err))
	}
}
