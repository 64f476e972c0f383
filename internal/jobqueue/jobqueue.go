// Package jobqueue is a durable, admission-controlled job queue: the
// service backbone of betze-web's benchmark-as-a-service front door. Every
// state transition of every job — submitted, claimed, running, checkpoint,
// done, failed, cancelled, released — is one JSON record appended (and
// fsync'd) to a runlog write-ahead journal before the in-memory state
// changes, so a SIGKILLed process reopens the journal, replays it, and
// finds the queue exactly where durability left it: terminal jobs stay
// terminal, in-flight jobs are requeued with their checkpoints intact, and
// an executor that saves a checkpoint per completed work unit resumes
// mid-job instead of starting over.
//
// Admission control sits in front of the journal: a bounded submission
// queue and per-tenant token-bucket quotas shed load with a computed
// retry-after hint instead of letting depth grow without bound — the
// HTTP layer maps the two rejection reasons onto 503 and 429. Job payloads
// are opaque JSON; the queue never interprets them.
//
// The journal doubles as the progress feed: the queue keeps each job's
// records in memory once they are durable, and Events hands them out with a
// channel that signals the next append, which is how betze-web streams
// per-campaign events over SSE without a second event bus or a disk read.
package jobqueue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/joda-explore/betze/internal/errfs"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/runlog"
)

// State is a job's position in the lifecycle. Transitions:
//
//	queued → claimed → running → done | failed | cancelled
//	         running → released → queued        (graceful drain)
//	         claimed/running → queued            (crash recovery requeue)
type State string

const (
	StateQueued    State = "queued"
	StateClaimed   State = "claimed"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Sentinel errors. Admission rejections wrap ErrQueueFull/ErrQuota inside a
// *ShedError carrying the retry-after hint.
var (
	// ErrQueueFull rejects a submission because the bounded queue is at
	// capacity.
	ErrQueueFull = errors.New("jobqueue: queue full")
	// ErrQuota rejects a submission because the tenant's token bucket is
	// empty.
	ErrQuota = errors.New("jobqueue: tenant quota exhausted")
	// ErrDraining rejects submissions and claims while the queue drains.
	ErrDraining = errors.New("jobqueue: draining")
	// ErrUnknownJob reports an ID the queue has never journaled.
	ErrUnknownJob = errors.New("jobqueue: unknown job")
	// ErrTerminal reports an operation on a job already in an end state.
	ErrTerminal = errors.New("jobqueue: job already terminal")
	// ErrBadRecord reports a journal payload that is not a queue record.
	ErrBadRecord = errors.New("jobqueue: malformed journal record")
	// ErrRecovering reports that the queue is not available yet because
	// journal recovery replay is still in progress — a retryable condition
	// the HTTP layer maps to 503 + Retry-After (wrapped in a *ShedError),
	// never an empty campaign list.
	ErrRecovering = errors.New("jobqueue: journal recovery in progress")
)

// ShedError is an admission-control rejection: Err is ErrQueueFull, ErrQuota
// or ErrDraining, and RetryAfter is the hint clients should wait before
// resubmitting (the HTTP layer turns it into a Retry-After header).
type ShedError struct {
	Err        error
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Err, e.RetryAfter.Round(time.Millisecond))
}

func (e *ShedError) Unwrap() error { return e.Err }

// Options tunes the queue.
type Options struct {
	// MaxQueued bounds the jobs waiting to be claimed (default 64).
	// Submissions beyond it shed with ErrQueueFull.
	MaxQueued int
	// MaxAttempts bounds how many times one job may be claimed across
	// process lifetimes (default 3); a job requeued by crash recovery that
	// often fails terminally instead — the poison-pill guard.
	MaxAttempts int
	// TenantRate refills each tenant's token bucket, in submissions per
	// second (default 4).
	TenantRate float64
	// TenantBurst is each bucket's capacity (default 8).
	TenantBurst int
	// NoSync skips journal fsync (tests only).
	NoSync bool
	// FS is the filesystem the journal lives on. Defaults to the
	// passthrough errfs.OS(); tests and the crash-point checks substitute an
	// in-memory or fault-injecting filesystem.
	FS errfs.FS
	// Obs receives queue metrics (depth/in-flight gauges, wait-time
	// histogram, admission and completion counters).
	Obs obs.Scope
	// Now substitutes the clock (tests); defaults to time.Now.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MaxQueued <= 0 {
		o.MaxQueued = 64
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.TenantRate <= 0 {
		o.TenantRate = 4
	}
	if o.TenantBurst <= 0 {
		o.TenantBurst = 8
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.FS == nil {
		o.FS = errfs.OS()
	}
	return o
}

// record is the JSON payload of one journal entry. Type is the transition
// name; the record set is the queue's public event vocabulary (Events hands
// out exactly these, as journaled).
type record struct {
	Type    string          `json:"type"`
	Job     string          `json:"job,omitempty"`
	Tenant  string          `json:"tenant,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Key     string          `json:"key,omitempty"`
	Data    json.RawMessage `json:"data,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// Journal record types (the Type field of record).
const (
	RecSubmitted  = "submitted"
	RecClaimed    = "claimed"
	RecRunning    = "running"
	RecCheckpoint = "checkpoint"
	RecDone       = "done"
	RecFailed     = "failed"
	RecCancelled  = "cancelled"
	RecReleased   = "released"
)

// job is the queue's internal job state.
type job struct {
	id      string
	tenant  string
	payload json.RawMessage
	state   State
	attempt int // claims across process lifetimes
	errMsg  string
	seq     int // submission order

	submittedAt time.Time          // volatile: in-memory only; wait-time metric
	cancelReq   bool               // volatile: cancel intent, re-requested after restart
	cancel      context.CancelFunc // volatile: cancels the running executor
}

// Snapshot is a read-only copy of a job's externally visible state.
type Snapshot struct {
	ID          string          `json:"id"`
	Tenant      string          `json:"tenant"`
	State       State           `json:"state"`
	Attempt     int             `json:"attempt"`
	Error       string          `json:"error,omitempty"`
	Checkpoints int             `json:"checkpoints"`
	Payload     json.RawMessage `json:"payload,omitempty"`
}

// bucket is a per-tenant token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// take refills by elapsed time and consumes one token, or reports how long
// until one is available.
func (b *bucket) take(now time.Time, rate float64, burst int) (bool, time.Duration) {
	b.tokens = math.Min(float64(burst), b.tokens+rate*now.Sub(b.last).Seconds())
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	return false, wait
}

// Queue is the durable job queue. All methods are safe for concurrent use.
type Queue struct {
	opts Options

	mu      sync.Mutex
	w       *runlog.Writer
	jobs    map[string]*job
	order   []string // submission order, for List
	pending []string // FIFO of queued job IDs
	// chk maps job and unit key to the job's latest checkpoint record for
	// that key, sharing the bytes held in records.
	chk map[string]map[string]json.RawMessage
	// records holds each job's records as journaled; see Events.
	records map[string][]json.RawMessage

	// The remaining fields are volatile: runtime-only state rebuilt on every
	// Open, never journaled.
	buckets  map[string]*bucket // volatile: token buckets refill from zero
	nextID   int                // volatile: recomputed from replayed IDs
	notify   chan struct{}      // volatile: wakes parked claimers
	changed  chan struct{}      // volatile: closed and replaced after every append and on Close
	draining bool               // volatile: admission gate, reset on restart
	closed   bool               // volatile: lifecycle flag
}

// Open creates or recovers the journaled queue in dir. A directory already
// holding a journal is replayed first: terminal jobs are restored for
// status queries, in-flight and queued jobs are requeued (in submission
// order) with their checkpoints, and jobs claimed MaxAttempts times are
// failed as poison pills. Recovery tolerates a torn journal tail — the
// record being appended when the process died is the only loss, and its
// job simply re-runs from its last checkpoint. A journal of the format that
// predates the single journal file fails with runlog.ErrLegacyJournal
// instead of being replayed in part or started over beside.
func Open(dir string, opts Options) (*Queue, error) {
	opts = opts.withDefaults()
	q := &Queue{
		opts:    opts,
		jobs:    make(map[string]*job),
		chk:     make(map[string]map[string]json.RawMessage),
		records: make(map[string][]json.RawMessage),
		buckets: make(map[string]*bucket),
		nextID:  1,
		notify:  make(chan struct{}, 1),
		changed: make(chan struct{}),
	}
	rl := runlog.Options{NoSync: opts.NoSync, FS: opts.FS}
	rec, err := runlog.RecoverFS(opts.FS, dir)
	switch {
	case errors.Is(err, runlog.ErrNoJournal):
		w, cerr := runlog.Create(dir, rl)
		if cerr != nil {
			return nil, fmt.Errorf("jobqueue: %w", cerr)
		}
		q.w = w
		return q, nil
	case err != nil:
		return nil, fmt.Errorf("jobqueue: %w", err)
	}
	if err := q.replay(rec.Records); err != nil {
		return nil, err
	}
	w, err := runlog.Open(dir, rl)
	if err != nil {
		return nil, fmt.Errorf("jobqueue: %w", err)
	}
	q.w = w
	// Requeue in-flight work and fail poison pills, journaling the
	// transitions so the next recovery replays the same conclusions.
	now := q.opts.Now()
	for _, id := range q.order {
		j := q.jobs[id]
		switch j.state {
		case StateClaimed, StateRunning:
			if j.attempt >= q.opts.MaxAttempts {
				msg := fmt.Sprintf("abandoned after %d attempts", j.attempt)
				if err := q.append(record{Type: RecFailed, Job: id, Error: msg}); err != nil {
					return nil, err
				}
				j.state = StateFailed
				j.errMsg = msg
				q.opts.Obs.Counter(obs.MQueueFailed).Inc()
				continue
			}
			if err := q.append(record{Type: RecReleased, Job: id}); err != nil {
				return nil, err
			}
			j.state = StateQueued
			j.submittedAt = now
			q.pending = append(q.pending, id)
			q.opts.Obs.Counter(obs.MQueueRequeued).Inc()
		case StateQueued:
			j.submittedAt = now
			q.pending = append(q.pending, id)
		}
	}
	q.gauges()
	return q, nil
}

// replay folds recovered journal records into queue state, writing memory
// from records that are already durable. Every other method changes memory
// only after its append succeeds, so a live queue always equals the replay
// of its journal.
func (q *Queue) replay(records [][]byte) error {
	for i, payload := range records {
		var r record
		if err := json.Unmarshal(payload, &r); err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrBadRecord, i, err)
		}
		q.records[r.Job] = append(q.records[r.Job], payload)
		if r.Type == RecSubmitted {
			if r.Job == "" {
				return fmt.Errorf("%w: record %d: submission without id", ErrBadRecord, i)
			}
			q.jobs[r.Job] = &job{
				id: r.Job, tenant: r.Tenant, payload: r.Payload,
				state: StateQueued, seq: len(q.order),
			}
			q.order = append(q.order, r.Job)
			if n := idNumber(r.Job); n >= q.nextID {
				q.nextID = n + 1
			}
			continue
		}
		j, ok := q.jobs[r.Job]
		if !ok {
			return fmt.Errorf("%w: record %d: %s for unknown job %q", ErrBadRecord, i, r.Type, r.Job)
		}
		switch r.Type {
		case RecClaimed:
			j.state = StateClaimed
			j.attempt++
		case RecRunning:
			j.state = StateRunning
		case RecCheckpoint:
			m := q.chk[j.id]
			if m == nil {
				m = make(map[string]json.RawMessage)
				q.chk[j.id] = m
			}
			m[r.Key] = payload
		case RecDone:
			j.state = StateDone
		case RecFailed:
			j.state = StateFailed
			j.errMsg = r.Error
		case RecCancelled:
			j.state = StateCancelled
		case RecReleased:
			j.state = StateQueued
		default:
			return fmt.Errorf("%w: record %d: unknown type %q", ErrBadRecord, i, r.Type)
		}
	}
	return nil
}

// idNumber extracts the numeric part of a "cNNNNNN" job ID; -1 otherwise.
func idNumber(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "c%06d", &n); err != nil {
		return -1
	}
	return n
}

// append journals one record durably, then adds it to its job's records
// and wakes Events waiters — never before the append is durable, so no
// stream shows a record a crash could take back. Callers hold q.mu.
func (q *Queue) append(r record) error {
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("jobqueue: encoding %s record: %w", r.Type, err)
	}
	if err := q.w.AppendSync(payload); err != nil {
		return fmt.Errorf("jobqueue: journaling %s: %w", r.Type, err)
	}
	q.records[r.Job] = append(q.records[r.Job], payload)
	q.announce()
	return nil
}

// announce wakes every Events waiter. Callers hold q.mu.
func (q *Queue) announce() {
	close(q.changed)
	q.changed = make(chan struct{})
}

// Events returns job id's records from index from on, each the record's
// journal JSON, in journal order, together with a channel that is closed at
// the queue's next append or at Close; the caller then asks again from the
// index after the last record it got. A nil channel means no record will
// follow: the job is terminal, or the queue is closed. Only durable records
// are returned, and a reopened queue returns everything its journal holds.
func (q *Queue) Events(id string, from int) ([]json.RawMessage, <-chan struct{}, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	recs := q.records[id]
	recs = recs[min(max(from, 0), len(recs)):len(recs):len(recs)]
	if j.state.Terminal() || q.closed {
		return recs, nil, nil
	}
	return recs, q.changed, nil
}

// gauges refreshes the depth and in-flight gauges. Callers hold q.mu.
func (q *Queue) gauges() {
	inflight := 0
	for _, j := range q.jobs {
		if j.state == StateClaimed || j.state == StateRunning {
			inflight++
		}
	}
	q.opts.Obs.Gauge(obs.MQueueDepth).Set(float64(len(q.pending)))
	q.opts.Obs.Gauge(obs.MQueueInFlight).Set(float64(inflight))
}

// Submit admits one job for tenant with an opaque payload, journals it, and
// returns its snapshot. Rejections are *ShedError wrapping ErrQueueFull
// (depth bound), ErrQuota (token bucket) or ErrDraining.
func (q *Queue) Submit(tenant string, payload json.RawMessage) (Snapshot, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.draining {
		q.opts.Obs.Counter(obs.MQueueRejected).Inc()
		return Snapshot{}, &ShedError{Err: ErrDraining, RetryAfter: 5 * time.Second}
	}
	if len(q.pending) >= q.opts.MaxQueued {
		q.opts.Obs.Counter(obs.MQueueRejected).Inc()
		// The deeper the backlog, the longer the hint — a crude but
		// monotone model of drain time, clamped to something polite.
		hint := min(time.Duration(len(q.pending))*250*time.Millisecond, 30*time.Second)
		return Snapshot{}, &ShedError{Err: ErrQueueFull, RetryAfter: max(hint, time.Second)}
	}
	b := q.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: float64(q.opts.TenantBurst), last: q.opts.Now()}
		q.buckets[tenant] = b
	}
	if ok, wait := b.take(q.opts.Now(), q.opts.TenantRate, q.opts.TenantBurst); !ok {
		q.opts.Obs.Counter(obs.MQueueRejected).Inc()
		return Snapshot{}, &ShedError{Err: ErrQuota, RetryAfter: max(wait, time.Second)}
	}
	id := fmt.Sprintf("c%06d", q.nextID)
	j := &job{
		id: id, tenant: tenant, payload: payload,
		state: StateQueued, seq: len(q.order), submittedAt: q.opts.Now(),
	}
	if err := q.append(record{Type: RecSubmitted, Job: id, Tenant: tenant, Payload: payload}); err != nil {
		return Snapshot{}, err
	}
	q.nextID++
	q.jobs[id] = j
	q.order = append(q.order, id)
	q.pending = append(q.pending, id)
	q.opts.Obs.Counter(obs.MQueueSubmitted).Inc()
	q.gauges()
	q.wake()
	return q.snapshotLocked(j), nil
}

// wake nudges one waiting claimer. Callers hold q.mu.
func (q *Queue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Claim blocks until a job is available (or ctx is done / the queue is
// draining), journals the claim, and hands the job to a worker.
func (q *Queue) Claim(ctx context.Context) (Snapshot, error) {
	for {
		if err := ctx.Err(); err != nil {
			return Snapshot{}, err
		}
		q.mu.Lock()
		if q.draining || q.closed {
			q.mu.Unlock()
			return Snapshot{}, ErrDraining
		}
		if len(q.pending) > 0 {
			id := q.pending[0]
			j := q.jobs[id]
			// Journal before popping: if the append fails the job stays
			// pending and the next claimer retries it, instead of silently
			// vanishing from the queue until a restart.
			if err := q.append(record{Type: RecClaimed, Job: id}); err != nil {
				q.mu.Unlock()
				return Snapshot{}, err
			}
			q.pending = q.pending[1:]
			j.state = StateClaimed
			j.attempt++
			q.opts.Obs.Observe(obs.MQueueWait, q.opts.Now().Sub(j.submittedAt))
			q.gauges()
			if len(q.pending) > 0 {
				q.wake() // more work: pass the baton to the next claimer
			}
			snap := q.snapshotLocked(j)
			q.mu.Unlock()
			return snap, nil
		}
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return Snapshot{}, ctx.Err()
		case <-q.notify:
		}
	}
}

// transition journals and applies a state change for a claimed/running job.
func (q *Queue) transition(id, recType string, to State, errMsg string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.state.Terminal() {
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.state)
	}
	if err := q.append(record{Type: recType, Job: id, Error: errMsg}); err != nil {
		return err
	}
	j.state = to
	j.errMsg = errMsg
	j.cancel = nil
	switch recType {
	case RecDone:
		q.opts.Obs.Counter(obs.MQueueDone).Inc()
	case RecFailed:
		q.opts.Obs.Counter(obs.MQueueFailed).Inc()
	case RecCancelled:
		q.opts.Obs.Counter(obs.MQueueCancelled).Inc()
	}
	q.gauges()
	return nil
}

// Running marks a claimed job as executing and registers the cancel hook a
// client-side Cancel will fire. A Cancel that arrived after the claim, when
// there was no hook yet, fires the hook at once.
func (q *Queue) Running(id string, cancel context.CancelFunc) error {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if err := q.append(record{Type: RecRunning, Job: id}); err != nil {
		q.mu.Unlock()
		return err
	}
	j.state = StateRunning
	j.cancel = cancel
	requested := j.cancelReq
	q.mu.Unlock()
	if requested && cancel != nil {
		cancel()
	}
	return nil
}

// Done marks a job completed.
func (q *Queue) Done(id string) error {
	return q.transition(id, RecDone, StateDone, "")
}

// Fail marks a job terminally failed.
func (q *Queue) Fail(id string, cause error) error {
	msg := "unknown failure"
	if cause != nil {
		msg = cause.Error()
	}
	return q.transition(id, RecFailed, StateFailed, msg)
}

// Cancelled marks a job cancelled (after its executor stopped).
func (q *Queue) Cancelled(id string) error {
	return q.transition(id, RecCancelled, StateCancelled, "")
}

// Release returns an in-flight job to the front of the queue — the
// graceful-drain path: the executor checkpointed what it finished, and the
// job resumes (here or after a restart) from that checkpoint.
func (q *Queue) Release(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.state.Terminal() {
		return fmt.Errorf("%w: %s is %s", ErrTerminal, id, j.state)
	}
	if err := q.append(record{Type: RecReleased, Job: id}); err != nil {
		return err
	}
	j.state = StateQueued
	j.cancel = nil
	j.submittedAt = q.opts.Now()
	q.pending = append([]string{id}, q.pending...)
	q.opts.Obs.Counter(obs.MQueueRequeued).Inc()
	q.gauges()
	q.wake()
	return nil
}

// Cancel requests cancellation: a queued job is cancelled immediately; a
// running job has its executor's context cancelled and completes the
// transition when the worker observes it. Terminal jobs return ErrTerminal.
func (q *Queue) Cancel(id string) (State, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	switch {
	case j.state.Terminal():
		state := j.state
		q.mu.Unlock()
		return state, fmt.Errorf("%w: %s is %s", ErrTerminal, id, state)
	case j.state == StateQueued:
		// Journal before splicing: a failed append leaves the job queued and
		// claimable rather than stranded outside both pending and the journal.
		if err := q.append(record{Type: RecCancelled, Job: id}); err != nil {
			q.mu.Unlock()
			return j.state, err
		}
		for i, pid := range q.pending {
			if pid == id {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				break
			}
		}
		j.state = StateCancelled
		q.opts.Obs.Counter(obs.MQueueCancelled).Inc()
		q.gauges()
		q.mu.Unlock()
		return StateCancelled, nil
	default: // claimed or running
		j.cancelReq = true
		cancel := j.cancel
		q.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return StateRunning, nil
	}
}

// CancelRequested reports whether a client asked to cancel the job.
func (q *Queue) CancelRequested(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return ok && j.cancelReq
}

// Checkpoint durably records one completed work unit of a job in any state,
// a done one included: a finished run resumed under changed flags adds the
// units it had not run yet.
func (q *Queue) Checkpoint(id, key string, data json.RawMessage) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.jobs[id]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if err := q.append(record{Type: RecCheckpoint, Job: id, Key: key, Data: data}); err != nil {
		return err
	}
	m := q.chk[id]
	if m == nil {
		m = make(map[string]json.RawMessage)
		q.chk[id] = m
	}
	recs := q.records[id]
	m[key] = recs[len(recs)-1]
	q.opts.Obs.Counter(obs.MQueueCheckpoints).Inc()
	return nil
}

// LoadCheckpoint returns the journaled checkpoint for (job, key), if any.
func (q *Queue) LoadCheckpoint(id, key string) (json.RawMessage, bool) {
	q.mu.Lock()
	payload, ok := q.chk[id][key]
	q.mu.Unlock()
	var r record
	if !ok || json.Unmarshal(payload, &r) != nil {
		return nil, false
	}
	return r.Data, true
}

// snapshotLocked copies a job's visible state. Callers hold q.mu.
func (q *Queue) snapshotLocked(j *job) Snapshot {
	return Snapshot{
		ID: j.id, Tenant: j.tenant, State: j.state, Attempt: j.attempt,
		Error: j.errMsg, Checkpoints: len(q.chk[j.id]), Payload: j.payload,
	}
}

// Get returns one job's snapshot.
func (q *Queue) Get(id string) (Snapshot, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Snapshot{}, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return q.snapshotLocked(j), nil
}

// List returns every job in submission order.
func (q *Queue) List() []Snapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Snapshot, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.snapshotLocked(q.jobs[id]))
	}
	sort.SliceStable(out, func(i, k int) bool { return q.jobs[out[i].ID].seq < q.jobs[out[k].ID].seq })
	return out
}

// Depth reports the jobs waiting to be claimed.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Drain stops admissions and claims: Submit sheds with ErrDraining and
// blocked Claim calls return ErrDraining. Running executors are not
// touched — the pool cancels and releases them.
func (q *Queue) Drain() {
	q.mu.Lock()
	q.draining = true
	q.mu.Unlock()
	// Wake every parked claimer so it observes the drain.
	for {
		select {
		case q.notify <- struct{}{}:
		default:
			return
		}
	}
}

// Close drains the queue, ends every Events stream and closes the journal.
// Safe to call after Drain.
func (q *Queue) Close() error {
	q.Drain()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	q.announce()
	if err := q.w.Close(); err != nil {
		return fmt.Errorf("jobqueue: closing journal: %w", err)
	}
	return nil
}
