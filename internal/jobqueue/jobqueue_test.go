package jobqueue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/errfs"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/runlog"
)

// testOpts returns fast, deterministic queue options for tests.
func testOpts() Options {
	return Options{NoSync: true, TenantRate: 1e6, TenantBurst: 1 << 20}
}

func mustOpen(t *testing.T, dir string, opts Options) *Queue {
	t.Helper()
	q, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return q
}

func TestLifecycleJournaledAndRecovered(t *testing.T) {
	dir := t.TempDir() + "/queue"
	q := mustOpen(t, dir, testOpts())

	snapA, err := q.Submit("alice", json.RawMessage(`{"n":1}`))
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := q.Submit("bob", json.RawMessage(`{"n":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if snapA.ID == snapB.ID {
		t.Fatalf("duplicate job IDs: %s", snapA.ID)
	}

	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	claimed, err := q.Claim(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if claimed.ID != snapA.ID {
		t.Fatalf("claimed %s, want FIFO order %s first", claimed.ID, snapA.ID)
	}
	if err := q.Running(claimed.ID, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(claimed.ID, "unit-1", json.RawMessage(`"partial"`)); err != nil {
		t.Fatal(err)
	}
	if err := q.Done(claimed.ID); err != nil {
		t.Fatal(err)
	}
	// A done job still takes checkpoints.
	if err := q.Checkpoint(claimed.ID, "unit-2", json.RawMessage(`"late"`)); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the done job stays done; the still-queued job is requeued.
	q2 := mustOpen(t, dir, testOpts())
	defer q2.Close()
	gotA, err := q2.Get(snapA.ID)
	if err != nil || gotA.State != StateDone {
		t.Fatalf("after recovery job A = %+v, %v; want done", gotA, err)
	}
	if gotA.Checkpoints != 2 {
		t.Fatalf("job A checkpoints = %d, want 2", gotA.Checkpoints)
	}
	if data, ok := q2.LoadCheckpoint(snapA.ID, "unit-2"); !ok || string(data) != `"late"` {
		t.Fatalf("checkpoint saved after done = %s, %v", data, ok)
	}
	gotB, err := q2.Get(snapB.ID)
	if err != nil || gotB.State != StateQueued {
		t.Fatalf("after recovery job B = %+v, %v; want queued", gotB, err)
	}
	if d := q2.Depth(); d != 1 {
		t.Fatalf("recovered depth = %d, want 1", d)
	}
	// Payloads survive the journal round-trip.
	if string(gotB.Payload) != `{"n":2}` {
		t.Fatalf("job B payload = %s", gotB.Payload)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	opts := testOpts()
	opts.MaxQueued = 2
	q := mustOpen(t, t.TempDir()+"/queue", opts)
	defer q.Close()

	for i := 0; i < 2; i++ {
		if _, err := q.Submit("t", nil); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, err := q.Submit("t", nil)
	var shed *ShedError
	if !errors.As(err, &shed) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit = %v, want ShedError{ErrQueueFull}", err)
	}
	if shed.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s", shed.RetryAfter)
	}
}

func TestAdmissionTenantQuota(t *testing.T) {
	now := time.Unix(1700000000, 0)
	opts := testOpts()
	opts.TenantRate = 1 // 1 token/sec
	opts.TenantBurst = 2
	opts.MaxQueued = 100
	opts.Now = func() time.Time { return now }
	q := mustOpen(t, t.TempDir()+"/queue", opts)
	defer q.Close()

	for i := 0; i < 2; i++ {
		if _, err := q.Submit("alice", nil); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	_, err := q.Submit("alice", nil)
	var shed *ShedError
	if !errors.As(err, &shed) || !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota submit = %v, want ShedError{ErrQuota}", err)
	}
	if shed.RetryAfter < time.Second {
		t.Fatalf("RetryAfter = %v, want >= 1s (empty bucket at 1 tok/s)", shed.RetryAfter)
	}
	// A different tenant is unaffected.
	if _, err := q.Submit("bob", nil); err != nil {
		t.Fatalf("other tenant sheds too: %v", err)
	}
	// After the bucket refills, alice is admitted again.
	now = now.Add(1500 * time.Millisecond)
	if _, err := q.Submit("alice", nil); err != nil {
		t.Fatalf("post-refill submit: %v", err)
	}
}

func TestRecoveryRequeuesInFlightWithCheckpoints(t *testing.T) {
	dir := t.TempDir() + "/queue"
	q := mustOpen(t, dir, testOpts())
	snap, err := q.Submit("t", json.RawMessage(`{"work":true}`))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	if _, err := q.Claim(ctx); err != nil {
		t.Fatal(err)
	}
	if err := q.Running(snap.ID, func() {}); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(snap.ID, "unit-1", json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoint(snap.ID, "unit-2", json.RawMessage(`2`)); err != nil {
		t.Fatal(err)
	}
	// Simulate SIGKILL: abandon the queue without Close; the journal's
	// active segment is left unsealed, exactly like a dead process.

	q2 := mustOpen(t, dir, testOpts())
	defer q2.Close()
	got, err := q2.Get(snap.ID)
	if err != nil || got.State != StateQueued {
		t.Fatalf("recovered in-flight job = %+v, %v; want requeued", got, err)
	}
	if got.Attempt != 1 {
		t.Fatalf("recovered attempt = %d, want 1", got.Attempt)
	}
	if data, ok := q2.LoadCheckpoint(snap.ID, "unit-2"); !ok || string(data) != `2` {
		t.Fatalf("checkpoint unit-2 = %q, %v; want preserved", data, ok)
	}
	// The requeued job is claimable and resumes.
	reclaimed, err := q2.Claim(ctx)
	if err != nil || reclaimed.ID != snap.ID {
		t.Fatalf("reclaim = %+v, %v", reclaimed, err)
	}
	if reclaimed.Attempt != 2 {
		t.Fatalf("reclaimed attempt = %d, want 2", reclaimed.Attempt)
	}
}

func TestRecoveryFailsPoisonPills(t *testing.T) {
	dir := t.TempDir() + "/queue"
	opts := testOpts()
	opts.MaxAttempts = 2
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()

	q := mustOpen(t, dir, opts)
	snap, err := q.Submit("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Claim(ctx); err != nil {
		t.Fatal(err)
	}
	// Crash #1: requeued (attempt 1 of 2).
	q = mustOpen(t, dir, opts)
	if _, err := q.Claim(ctx); err != nil {
		t.Fatal(err)
	}
	// Crash #2: attempt bound reached — recovery must fail it, not loop.
	q = mustOpen(t, dir, opts)
	defer q.Close()
	got, err := q.Get(snap.ID)
	if err != nil || got.State != StateFailed {
		t.Fatalf("poison pill after recovery = %+v, %v; want failed", got, err)
	}
	if got.Error == "" {
		t.Fatal("poison pill carries no error message")
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("poison pill still queued (depth %d)", d)
	}
}

func TestDrainReleasesAndReopenResumes(t *testing.T) {
	dir := t.TempDir() + "/queue"
	q := mustOpen(t, dir, testOpts())

	snap, err := q.Submit("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	ctx, cancel := context.WithCancel(t.Context())
	pool := NewPool(ctx, q, 1, func(jctx context.Context, job Snapshot, cp *Checkpoints) error {
		if err := cp.Save("unit-1", []byte(`"done"`)); err != nil {
			return err
		}
		close(started)
		<-jctx.Done() // simulate a long run interrupted by drain
		return jctx.Err()
	})
	<-started
	cancel() // SIGTERM path: drain the pool
	pool.Wait()
	q.Drain()

	got, err := q.Get(snap.ID)
	if err != nil || got.State != StateQueued {
		t.Fatalf("drained job = %+v, %v; want released back to queued", got, err)
	}
	// Draining queue sheds new submissions.
	if _, err := q.Submit("t", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the released job resumes from its checkpoint.
	q2 := mustOpen(t, dir, testOpts())
	defer q2.Close()
	if data, ok := q2.LoadCheckpoint(snap.ID, "unit-1"); !ok || string(data) != `"done"` {
		t.Fatalf("checkpoint after restart = %q, %v", data, ok)
	}
	ranCh := make(chan Snapshot, 1)
	ctx2, cancel2 := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel2()
	pool2 := NewPool(ctx2, q2, 1, func(jctx context.Context, job Snapshot, cp *Checkpoints) error {
		ranCh <- job
		return nil
	})
	resumed := <-ranCh
	if resumed.ID != snap.ID || resumed.Checkpoints != 1 {
		t.Fatalf("resumed job = %+v, want ID %s with 1 checkpoint", resumed, snap.ID)
	}
	waitState(t, q2, snap.ID, StateDone)
	cancel2()
	pool2.Wait()
}

func TestCancelQueuedAndRunning(t *testing.T) {
	q := mustOpen(t, t.TempDir()+"/queue", testOpts())
	defer q.Close()

	// Cancel while queued: immediate terminal transition.
	snap, err := q.Submit("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := q.Cancel(snap.ID); err != nil || st != StateCancelled {
		t.Fatalf("cancel queued = %v, %v", st, err)
	}
	if d := q.Depth(); d != 0 {
		t.Fatalf("cancelled job still queued (depth %d)", d)
	}
	// Cancelling again reports the terminal state.
	if _, err := q.Cancel(snap.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("double cancel = %v, want ErrTerminal", err)
	}

	// Cancel while running: executor context is cancelled, worker records it.
	snap2, err := q.Submit("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	pool := NewPool(ctx, q, 1, func(jctx context.Context, job Snapshot, cp *Checkpoints) error {
		close(started)
		<-jctx.Done()
		return jctx.Err()
	})
	<-started
	if _, err := q.Cancel(snap2.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, q, snap2.ID, StateCancelled)
	q.Drain()
	pool.Wait()
}

// TestCancelBetweenClaimAndRunning: a Cancel after the claim and before
// Running finds no executor hook to fire, so Running must fire the hook it
// registers, or the campaign runs to completion before the pool sees the
// request.
func TestCancelBetweenClaimAndRunning(t *testing.T) {
	q := mustOpen(t, t.TempDir()+"/queue", testOpts())
	defer q.Close()
	snap, err := q.Submit("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Claim(t.Context()); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Cancel(snap.ID); err != nil {
		t.Fatal(err)
	}
	cancelled := false
	if err := q.Running(snap.ID, func() { cancelled = true }); err != nil {
		t.Fatal(err)
	}
	if !cancelled {
		t.Fatal("cancel requested before Running never reaches the executor's context")
	}
}

func TestPoolFailureBoundsAttempts(t *testing.T) {
	q := mustOpen(t, t.TempDir()+"/queue", testOpts())
	defer q.Close()
	snap, err := q.Submit("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(t.Context(), 5*time.Second)
	defer cancel()
	pool := NewPool(ctx, q, 1, func(jctx context.Context, job Snapshot, cp *Checkpoints) error {
		return errors.New("engine exploded")
	})
	waitState(t, q, snap.ID, StateFailed)
	got, _ := q.Get(snap.ID)
	if got.Error == "" {
		t.Fatal("failed job carries no cause")
	}
	q.Drain()
	pool.Wait()
}

// TestConcurrentExactlyOnceExecution is the chaos check: many tenants
// submitting against many workers, every accepted job executed exactly once
// and driven to a terminal state, under -race.
func TestConcurrentExactlyOnceExecution(t *testing.T) {
	opts := testOpts()
	opts.MaxQueued = 1000
	q := mustOpen(t, t.TempDir()+"/queue", opts)
	defer q.Close()

	var mu sync.Mutex
	runs := make(map[string]int)
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	pool := NewPool(ctx, q, 8, func(jctx context.Context, job Snapshot, cp *Checkpoints) error {
		mu.Lock()
		runs[job.ID]++
		mu.Unlock()
		return nil
	})

	const tenants, perTenant = 5, 20
	var wg sync.WaitGroup
	var accepted atomic.Int64
	ids := make(chan string, tenants*perTenant)
	for tnt := 0; tnt < tenants; tnt++ {
		wg.Add(1)
		go func(tnt int) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				snap, err := q.Submit(fmt.Sprintf("tenant-%d", tnt), nil)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				accepted.Add(1)
				ids <- snap.ID
			}
		}(tnt)
	}
	wg.Wait()
	close(ids)

	for id := range ids {
		waitState(t, q, id, StateDone)
	}
	q.Drain()
	pool.Wait()

	mu.Lock()
	defer mu.Unlock()
	if int64(len(runs)) != accepted.Load() {
		t.Fatalf("executed %d distinct jobs, accepted %d", len(runs), accepted.Load())
	}
	for id, n := range runs {
		if n != 1 {
			t.Fatalf("job %s executed %d times, want exactly once", id, n)
		}
	}
}

// TestMetricsVocabulary: the queue reports through the closed obs
// vocabulary; spot-check a few counters move.
func TestMetricsVocabulary(t *testing.T) {
	reg := obs.NewRegistry()
	opts := testOpts()
	opts.MaxQueued = 1
	opts.Obs = obs.Scope{Metrics: reg}
	q := mustOpen(t, t.TempDir()+"/queue", opts)
	defer q.Close()
	if _, err := q.Submit("t", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("t", nil); err == nil {
		t.Fatal("expected shed")
	}
	if n := reg.Counter(obs.MQueueSubmitted).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", obs.MQueueSubmitted, n)
	}
	if n := reg.Counter(obs.MQueueRejected).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", obs.MQueueRejected, n)
	}
}

// waitState polls until the job reaches want or the test deadline passes.
func waitState(t *testing.T, q *Queue, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		got, err := q.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if got.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	got, _ := q.Get(id)
	t.Fatalf("job %s stuck in %s, want %s", id, got.State, want)
}

// journalRecords returns the journal's records of job id, in order.
func journalRecords(t *testing.T, fsys errfs.FS, dir, id string) []string {
	t.Helper()
	rec, err := runlog.RecoverFS(fsys, dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, payload := range rec.Records {
		var r record
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatal(err)
		}
		if r.Job == id {
			out = append(out, string(payload))
		}
	}
	return out
}

func eventStrings(recs []json.RawMessage) []string {
	var out []string
	for _, r := range recs {
		out = append(out, string(r))
	}
	return out
}

// TestEventsServeTheJournal: Events returns a job's journaled records, byte
// for byte and in journal order, signals each append through its channel,
// reports the end of the stream (nil channel) once the job is terminal or
// the queue is closed, and a reopened queue serves the same history.
func TestEventsServeTheJournal(t *testing.T) {
	dir := t.TempDir() + "/queue"
	q := mustOpen(t, dir, testOpts())
	a, _ := q.Submit("t", nil)
	b, _ := q.Submit("t", nil)

	recs, changed, err := q.Events(a.ID, 0)
	if err != nil || len(recs) != 1 || changed == nil {
		t.Fatalf("Events after submit = %d records, channel %v, %v", len(recs), changed, err)
	}
	if _, err := q.Claim(t.Context()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-changed:
	default:
		t.Fatal("an append did not signal the Events channel")
	}
	if recs, _, _ := q.Events(a.ID, 1); len(recs) != 1 || !strings.Contains(string(recs[0]), RecClaimed) {
		t.Fatalf("Events from 1 = %s, want the claim", eventStrings(recs))
	}
	if err := q.Done(a.ID); err != nil {
		t.Fatal(err)
	}
	all, changed, _ := q.Events(a.ID, 0)
	if changed != nil {
		t.Fatal("a terminal job's stream did not end")
	}
	if recs, _, _ := q.Events(a.ID, 99); len(recs) != 0 {
		t.Fatalf("Events past the end = %d records", len(recs))
	}

	_, bChanged, _ := q.Events(b.ID, 0)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-bChanged:
	default:
		t.Fatal("Close did not signal the Events channel")
	}
	if recs, changed, _ := q.Events(b.ID, 0); changed != nil || len(recs) != 1 {
		t.Fatalf("Events on a closed queue = %d records, channel %v", len(recs), changed)
	}
	want := journalRecords(t, errfs.OS(), dir, a.ID)
	if got := eventStrings(all); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Events = %v\njournal = %v", got, want)
	}

	q2 := mustOpen(t, dir, testOpts())
	defer q2.Close()
	if recs, _, _ := q2.Events(a.ID, 0); fmt.Sprint(eventStrings(recs)) != fmt.Sprint(want) {
		t.Fatalf("reopened Events = %v, want %v", eventStrings(recs), want)
	}
	if _, _, err := q2.Events("c999999", 0); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: %v", err)
	}
}

// TestEventsOnlyDurableRecords: a record whose fsync failed never reaches
// Events, so no stream shows a transition a crash could take back.
func TestEventsOnlyDurableRecords(t *testing.T) {
	// Faultable ops: Open's read of the missing journal (0), Create's
	// syncdir (1), the submission's two writes and fsync (2-4), the claim's
	// two writes and fsync (5-7).
	faulty := errfs.NewFaulty(errfs.NewMem(), errfs.Plan{7: errfs.FaultSyncFail})
	opts := testOpts()
	opts.NoSync = false
	opts.FS = faulty
	q := mustOpen(t, "queue", opts)
	a, err := q.Submit("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Claim(t.Context()); !errors.Is(err, runlog.ErrWriterFailed) {
		t.Fatalf("claim over a failed fsync = %v, want ErrWriterFailed", err)
	}
	if recs, _, _ := q.Events(a.ID, 0); len(recs) != 1 || !strings.Contains(string(recs[0]), RecSubmitted) {
		t.Fatalf("Events = %s, want only the durable submission", eventStrings(recs))
	}
}

// TestOpenRefusesLegacyJournal: a queue directory holding a sealed segment
// of the pre-single-file journal fails Open with runlog.ErrLegacyJournal
// and no fresh journal is started beside it.
func TestOpenRefusesLegacyJournal(t *testing.T) {
	mem := errfs.NewMem()
	if err := mem.MkdirAll("queue", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := mem.OpenFile("queue/000001.wal", os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	opts := testOpts()
	opts.FS = mem
	if _, err := Open("queue", opts); !errors.Is(err, runlog.ErrLegacyJournal) {
		t.Fatalf("Open over a legacy journal = %v, want ErrLegacyJournal", err)
	}
	if _, err := mem.ReadFile("queue/current.wal"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open started a journal beside the legacy one: %v", err)
	}
}

// TestFailedAppendLeavesQueueAsJournaled: memory changes only after the
// journal append succeeds. A workload that reaches every append site runs
// once per faultable operation of a fault-free run, failing that operation
// if it is a write. After every call, failed or not, the live queue must
// equal the queue replay folds from the same journal. Only writes fail: a
// failed fsync may leave its unacked record in the file, and recovery may
// keep it (TestEventsOnlyDurableRecords covers that case).
func TestFailedAppendLeavesQueueAsJournaled(t *testing.T) {
	mem := errfs.NewMem()
	clean := errfs.NewFaulty(mem, errfs.Plan{})
	want := journaledWorkload(t, mem, clean, "no fault", nil)

	// The fault-free journal holds a record from every append site,
	// Open's two included.
	rec, err := runlog.RecoverFS(mem, "queue")
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, payload := range rec.Records {
		var r record
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatal(err)
		}
		types = append(types, r.Type)
	}
	sites := "submitted submitted submitted submitted submitted " +
		"claimed running checkpoint done claimed running released cancelled " +
		"claimed claimed running failed claimed failed released"
	if got := strings.Join(types, " "); got != sites {
		t.Fatalf("fault-free journal = %s\nwant %s", got, sites)
	}

	failedWrites := 0
	for k := range clean.OpCount() {
		fault := errfs.FaultShortWrite
		if k%2 == 1 {
			fault = errfs.FaultENOSPC
		}
		mem := errfs.NewMem()
		faulty := errfs.NewFaulty(mem, errfs.Plan{k: fault})
		journaledWorkload(t, mem, faulty, fmt.Sprintf("%s at op %d", fault, k), want)
		for _, inj := range faulty.Injections() {
			if inj.Op == "write" {
				failedWrites++
			}
		}
	}
	// Each record is two writes, header and payload, and each failed once.
	if failedWrites != 2*len(rec.Records) {
		t.Fatalf("%d writes failed, want %d", failedWrites, 2*len(rec.Records))
	}
}

// journaledWorkload drives a queue on fsys through every append site and,
// after every call, checks the queue against the journal on mem, the
// filesystem under fsys. Calls may fail under an injected fault; the check
// is the assertion. It returns the List of the final reopen. A reopen that
// fails must leave a journal that a clean Open reads as want, the List of
// a reopen that never faulted.
func journaledWorkload(t *testing.T, mem *errfs.Mem, fsys errfs.FS, label string, want []Snapshot) []Snapshot {
	t.Helper()
	const dir = "queue"
	opts := testOpts()
	opts.FS = fsys
	q := mustOpen(t, dir, opts)
	check := func(call string) {
		t.Helper()
		assertJournaled(t, q, mem, dir, label+", after "+call)
	}
	for range 5 {
		q.Submit("t", nil)
		check("Submit")
	}
	claim := func() (string, bool) {
		if q.Depth() == 0 {
			return "", false
		}
		snap, err := q.Claim(t.Context())
		check("Claim")
		return snap.ID, err == nil
	}
	if id, ok := claim(); ok {
		q.Running(id, func() {})
		check("Running")
		q.Checkpoint(id, "unit-1", json.RawMessage(`1`))
		check("Checkpoint")
		q.Done(id)
		check("Done")
	}
	if id, ok := claim(); ok {
		q.Running(id, func() {})
		check("Running")
		q.Release(id)
		check("Release")
	}
	var queued string
	for _, s := range q.List() {
		if s.State == StateQueued {
			queued = s.ID
		}
	}
	q.Cancel(queued)
	check("Cancel")
	claim() // the released job's second claim stays in flight
	if id, ok := claim(); ok {
		q.Running(id, func() {})
		check("Running")
		q.Fail(id, errors.New("boom"))
		check("Fail")
	}
	claim() // a first claim stays in flight
	if err := q.Close(); err != nil {
		t.Fatalf("%s: Close: %v", label, err)
	}

	// Reopening fails the job on its second claim as a poison pill and
	// requeues the one on its first.
	opts.MaxAttempts = 2
	q, err := Open(dir, opts)
	if err != nil {
		// Open drops its memory on error; its journal must read as if
		// the failed Open had never run.
		opts.FS = mem
		q = mustOpen(t, dir, opts)
		if got := q.List(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: clean Open after a failed one lists\n%v\nwant\n%v", label, got, want)
		}
	}
	check("Open")
	defer q.Close()
	return q.List()
}

// assertJournaled fails unless q's memory equals the fold of the journal in
// dir on fsys: per job its state, attempt, error, checkpoint keys and record
// count, and the pending set equals the folded queued jobs.
func assertJournaled(t *testing.T, q *Queue, fsys errfs.FS, dir, where string) {
	t.Helper()
	rec, err := runlog.RecoverFS(fsys, dir)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	folded := &Queue{
		jobs:    make(map[string]*job),
		chk:     make(map[string]map[string]json.RawMessage),
		records: make(map[string][]json.RawMessage),
	}
	if err := folded.replay(rec.Records); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	var queued []string
	for id, j := range folded.jobs {
		if j.state == StateQueued {
			queued = append(queued, id)
		}
	}
	q.mu.Lock()
	live := journaledState(q, q.pending)
	q.mu.Unlock()
	if journal := journaledState(folded, queued); live != journal {
		t.Fatalf("%s: memory differs from the journal\nmemory:\n%s\njournal:\n%s", where, live, journal)
	}
}

// journaledState renders the part of q's memory the journal determines.
func journaledState(q *Queue, pending []string) string {
	var b strings.Builder
	for _, id := range sortedKeys(q.jobs) {
		j := q.jobs[id]
		fmt.Fprintf(&b, "%s %s attempt=%d error=%q checkpoints=%v records=%d\n",
			id, j.state, j.attempt, j.errMsg, sortedKeys(q.chk[id]), len(q.records[id]))
	}
	pending = slices.Clone(pending)
	slices.Sort(pending)
	fmt.Fprintf(&b, "pending=%v", pending)
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
