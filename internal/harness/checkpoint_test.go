package harness

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/errfs"
	"github.com/joda-explore/betze/internal/faultsim"
	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
	"github.com/joda-explore/betze/internal/runlog"
)

// testJournal is the run journal's directory on the in-memory filesystem.
const testJournal = "journal"

var table2 = Experiment{ID: "table2", Run: Table2}

// checkpointedRun runs exp as the one job of the jobqueue journal on fsys:
// it submits the job to an empty journal, claims it unless it is done, and
// marks it done when the experiment succeeds. A run that fails leaves the
// job claimed, as a killed process would.
func checkpointedRun(ctx context.Context, t *testing.T, cfg Config, exp Experiment, fsys errfs.FS) (*Result, error) {
	t.Helper()
	q, err := jobqueue.Open(testJournal, jobqueue.Options{FS: fsys, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var job jobqueue.Snapshot
	if jobs := q.List(); len(jobs) > 0 {
		job = jobs[0]
	} else if job, err = q.Submit("test", json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	done := job.State == jobqueue.StateDone
	if !done {
		if job, err = q.Claim(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	env.SetCheckpoints(q.Checkpoints(job.ID))
	res, err := env.RunExperiment(ctx, exp)
	if err == nil {
		err = env.CheckpointErr()
	}
	if err == nil && !done {
		if err := q.Done(job.ID); err != nil {
			t.Fatal(err)
		}
	}
	return res, err
}

// exports renders a result in every machine- and human-readable form.
func exports(t *testing.T, res *Result) [3]string {
	t.Helper()
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return [3]string{res.Text(), res.CSV(), string(js)}
}

// journalRecords returns the records of the run journal on fsys.
func journalRecords(t *testing.T, fsys errfs.FS) [][]byte {
	t.Helper()
	rec, err := runlog.RecoverFS(fsys, testJournal)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Records
}

// checkpointKey returns the key of a checkpoint record, or "" for any
// other record.
func checkpointKey(t *testing.T, payload []byte) string {
	t.Helper()
	var r struct{ Type, Key string }
	if err := json.Unmarshal(payload, &r); err != nil {
		t.Fatalf("bad journal payload: %v", err)
	}
	if r.Type != jobqueue.RecCheckpoint {
		return ""
	}
	return r.Key
}

// countCheckpoints tallies a run journal's session checkpoints by key.
func countCheckpoints(t *testing.T, records [][]byte) map[string]int {
	t.Helper()
	sessions := map[string]int{}
	for _, payload := range records {
		if key := checkpointKey(t, payload); key != "" {
			sessions[key]++
		}
	}
	return sessions
}

// total sums a checkpoint tally.
func total(counts map[string]int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}

// uninterrupted is table2 at tiny scale with det-timing, run once,
// checkpointed, and shared by every test that compares against an
// uninterrupted run.
var uninterrupted struct {
	once    sync.Once
	exports [3]string
	records [][]byte // the run journal's
}

func uninterruptedTable2(t *testing.T) ([3]string, [][]byte) {
	t.Helper()
	uninterrupted.once.Do(func() {
		cfg := tinyConfig(t)
		cfg.DetTiming = true
		fsys := errfs.NewMem()
		res, err := checkpointedRun(context.Background(), t, cfg, table2, fsys)
		if err != nil {
			t.Fatalf("uninterrupted table2: %v", err)
		}
		uninterrupted.exports = exports(t, res)
		uninterrupted.records = journalRecords(t, fsys)
	})
	if uninterrupted.records == nil {
		t.Fatal("the uninterrupted table2 run failed")
	}
	return uninterrupted.exports, uninterrupted.records
}

// diffExports reports every export of got that differs from want.
func diffExports(t *testing.T, what string, want, got [3]string) {
	t.Helper()
	for i, form := range []string{"Text", "CSV", "JSON"} {
		if got[i] != want[i] {
			t.Errorf("%s: %s export differs:\n--- want\n%s\n--- got\n%s", what, form, want[i], got[i])
		}
	}
}

// TestRunExperimentWithoutJournal pins the untracked path: RunExperiment
// with no SetCheckpoints runs normally, and exports exactly what a
// checkpointed run exports.
func TestRunExperimentWithoutJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table2 at tiny scale")
	}
	want, _ := uninterruptedTable2(t)
	cfg := tinyConfig(t)
	cfg.DetTiming = true
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	res, err := env.RunExperiment(context.Background(), table2)
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Tables) == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if err := env.CheckpointErr(); err != nil {
		t.Errorf("untracked CheckpointErr: %v", err)
	}
	diffExports(t, "untracked run", want, exports(t, res))
}

// cutAfterSessions writes the first records of a run journal, through its
// k-th session checkpoint, as the journal of a new in-memory filesystem:
// the state a SIGKILL leaves once that checkpoint is durable.
func cutAfterSessions(t *testing.T, records [][]byte, k int) *errfs.Mem {
	t.Helper()
	fsys := errfs.NewMem()
	w, err := runlog.Create(testJournal, runlog.Options{FS: fsys, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sessions := 0
	for _, payload := range records {
		if err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
		if checkpointKey(t, payload) != "" {
			if sessions++; sessions == k {
				break
			}
		}
	}
	if sessions != k {
		t.Fatalf("journal holds %d session checkpoints, want at least %d", sessions, k)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return fsys
}

// TestResumeDeterminism is the acceptance test at unit scale: cut the
// journal of an uninterrupted run after k session checkpoints (the effect
// of a crash), resume into a fresh environment, and assert the merged
// result is byte-identical to the uninterrupted run for every exporter.
func TestResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table2 at tiny scale")
	}
	want, records := uninterruptedTable2(t)
	full := total(countCheckpoints(t, records))
	if full != 10 { // 5 engine specs x 2 datasets
		t.Fatalf("table2 checkpointed %d sessions, want 10", full)
	}

	// Resume in a fresh environment (different dataset dir) from the
	// journal cut after the 3rd session checkpoint: deterministic
	// generation must reproduce the identical work keys and skip them.
	const keep = 3
	cut := cutAfterSessions(t, records, keep)
	cfg := tinyConfig(t)
	cfg.DetTiming = true
	reg := obs.NewRegistry()
	cfg.Obs = obs.Scope{Metrics: reg}
	got, err := checkpointedRun(context.Background(), t, cfg, table2, cut)
	if err != nil {
		t.Fatal(err)
	}
	diffExports(t, "resumed run", want, exports(t, got))
	if skips := reg.Counter(obs.MHarnessResumeSkips).Value(); skips != keep {
		t.Errorf("resume skips = %d, want %d", skips, keep)
	}
	// The merged journal holds every session exactly once: the skipped
	// prefix from before the cut plus only the re-executed tail.
	sessions := countCheckpoints(t, journalRecords(t, cut))
	if total(sessions) != full || len(sessions) != full {
		t.Errorf("merged journal: %d session checkpoints over %d keys, want %d and %d",
			total(sessions), len(sessions), full, full)
	}

	// A second resume of the finished run replays every session and
	// re-exports the result byte-identically, saving nothing more.
	again, err := checkpointedRun(context.Background(), t, cfg, table2, cut)
	if err != nil {
		t.Fatal(err)
	}
	diffExports(t, "finished-run resume", want, exports(t, again))
	if skips := reg.Counter(obs.MHarnessResumeSkips).Value(); skips != int64(keep+full) {
		t.Errorf("resume skips = %d after the second resume, want %d", skips, keep+full)
	}
	if n := total(countCheckpoints(t, journalRecords(t, cut))); n != full {
		t.Errorf("second resume left %d session checkpoints, want %d", n, full)
	}
}

// TestInterruptedRunCheckpointsNothing pins the Ctrl-C path: an experiment
// run under an already-cancelled context fails every session at once, and
// none of those failures may be checkpointed — otherwise a resume would
// replay a table of "load failed" cells as a completed result. Resuming
// from what the interrupted run left must reproduce the uninterrupted
// exports byte for byte.
func TestInterruptedRunCheckpointsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table2 at tiny scale")
	}
	want, _ := uninterruptedTable2(t)
	cfg := tinyConfig(t)
	cfg.DetTiming = true
	fsys := errfs.NewMem()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := checkpointedRun(ctx, t, cfg, table2, fsys)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: res=%v err=%v, want context.Canceled", res, err)
	}
	if sessions := countCheckpoints(t, journalRecords(t, fsys)); len(sessions) != 0 {
		t.Fatalf("interrupted run checkpointed sessions: %v", sessions)
	}

	cfg.Dir = t.TempDir()
	got, err := checkpointedRun(context.Background(), t, cfg, table2, fsys)
	if err != nil {
		t.Fatal(err)
	}
	diffExports(t, "resume after the interruption", want, exports(t, got))
}

// TestSessionTimeoutIsJournaled is the other side of the same line: a
// session that hit only its own Cfg.Timeout, not a cancelled parent
// context, is a genuine result and is checkpointed like any other.
func TestSessionTimeoutIsJournaled(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Timeout = time.Nanosecond
	fsys := errfs.NewMem()
	res, err := checkpointedRun(context.Background(), t, cfg, table2, fsys)
	if err != nil {
		t.Fatal(err)
	}
	if cell := res.Tables[0].Rows[0][1]; cell != "load failed" {
		t.Errorf("timed-out session cell = %q, want load failed", cell)
	}
	if n := total(countCheckpoints(t, journalRecords(t, fsys))); n != 10 {
		t.Errorf("journal holds %d session checkpoints, want 10", n)
	}
}

// plantedConfig is the small fig5 run of runPlanted.
func plantedConfig(t *testing.T) Config {
	return Config{Dir: t.TempDir(), TwitterDocs: 300, Sessions: 1, Seed: 123}
}

// fig5Key is the key of the first session fig5 runs under plantedConfig.
func fig5Key(t *testing.T) string {
	t.Helper()
	env, err := NewEnv(plantedConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ds, err := env.Twitter()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := ds.generate(core.Options{Preset: core.Presets()[0], Queries: 20, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	return "fig5/" + env.unit(Systems["joda"], 0, ds, sess).Key()
}

// runPlanted runs fig5 at a small scale against a journal holding one
// checkpoint, payload under key, and returns the run's error. It fails the
// test if the run returned a result or saved any checkpoint.
func runPlanted(t *testing.T, key, payload string) error {
	t.Helper()
	fsys := errfs.NewMem()
	q, err := jobqueue.Open(testJournal, jobqueue.Options{FS: fsys, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	job, err := q.Submit("test", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Checkpoints(job.ID).Save(key, []byte(payload)); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	exp := Experiment{ID: "fig5", Run: Fig5}
	res, err := checkpointedRun(context.Background(), t, plantedConfig(t), exp, fsys)
	if res != nil {
		t.Errorf("checkpoint %s: returned a result", payload)
	}
	if n := total(countCheckpoints(t, journalRecords(t, fsys))); n != 1 {
		t.Errorf("checkpoint %s: the run saved %d sessions beside it", payload, n-1)
	}
	return err
}

// TestReplayRejectsGarbageRecords: a session checkpoint that does not
// strictly decode fails the run with an error naming its key instead of
// being replayed.
func TestReplayRejectsGarbageRecords(t *testing.T) {
	fig5Key := fig5Key(t)
	for _, tc := range []struct{ key, payload string }{
		{fig5Key, `{"engine":"JODA","alien":1}`},
		{fig5Key, `{"engine":5}`},
		{fig5Key, `[1,2]`},
	} {
		err := runPlanted(t, tc.key, tc.payload)
		if err == nil || !strings.Contains(err.Error(), "checkpoint "+tc.key) {
			t.Errorf("checkpoint %s under %s: err = %v, want one naming the key", tc.payload, tc.key, err)
		}
	}
}

// TestReplayRejectsLegacySessionShape: a session checkpointed in the record
// shape before SessionRecord (query_times, total, wall) must fail the
// resume instead of replaying as an empty session.
func TestReplayRejectsLegacySessionShape(t *testing.T) {
	payload := `{"engine":"JODA","import":{"Docs":8,"Bytes":900,"StoredBytes":700,"Duration":9000},` +
		`"query_times":[1000,2000],"total":3000,"wall":12000}`
	fig5Key := fig5Key(t)
	err := runPlanted(t, fig5Key, payload)
	if err == nil || !strings.Contains(err.Error(), fig5Key) || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("legacy session checkpoint: %v, want an unknown-field error naming %s", err, fig5Key)
	}
}

// TestSessionRecordRoundTrip: a checkpointed record loads as the record
// that was saved, and the render path reads it the same way.
func TestSessionRecordRoundTrip(t *testing.T) {
	orig := SessionRecord{
		Engine: "JODA", Seed: 7,
		Import: ImportRecord{Docs: 10, Bytes: 100, DurationUS: 2000},
		Queries: []QueryRecord{
			{ID: "q1", Scanned: 10, Matched: 4, Returned: 4, DurationUS: 1000},
			{ID: "q2", Error: "q2 failed", Skipped: true},
			{ID: "q3", Scanned: 4, Matched: 1, Returned: 1, DurationUS: 2000},
		},
		Completed: 2, Skipped: 1, Retries: 2, Recovered: 1, TimedOut: true,
	}
	q, err := jobqueue.Open(testJournal, jobqueue.Options{FS: errfs.NewMem(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	job, err := q.Submit("test", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	cp := q.Checkpoints(job.ID)
	const key = "table2/session"
	if err := saveCheckpoint(cp, key, orig); err != nil {
		t.Fatal(err)
	}
	var got SessionRecord
	if found, err := loadCheckpoint(cp, key, &got); !found || err != nil {
		t.Fatalf("checkpointed session not loaded: found=%v err=%v", found, err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("round trip changed the record:\n got %+v\nwant %+v", got, orig)
	}
	if got.Total() != 3*time.Millisecond || got.Wall() != 5*time.Millisecond {
		t.Errorf("total/wall = %v/%v, want 3ms/5ms", got.Total(), got.Wall())
	}
	if times := got.QueryTimes(); len(times) != 2 || times[1] != 2*time.Millisecond {
		t.Errorf("query times = %v", times)
	}
	if err := got.Err(); err == nil || !strings.Contains(err.Error(), "q2 failed") {
		t.Errorf("first query error = %v", err)
	}
	if got.cell() != "error" {
		t.Errorf("cell = %q, want error", got.cell())
	}
	got.Error = "import: disk on fire"
	if got.cell() != "load failed" {
		t.Errorf("cell = %q, want load failed", got.cell())
	}
}

// TestUnitKey pins what a unit's key covers: everything that shapes the
// record, and nothing that only says where bytes are stored.
func TestUnitKey(t *testing.T) {
	base := Unit{
		System: Systems["joda"], Threads: 2,
		Imports: []Import{{Name: "Twitter", Path: "/data/a.json"}}, DataKey: "twitter",
		Queries: plainQueries(3), Seed: 7,
		Faults: faultsim.Options{Seed: 5, Rate: 0.2}, Retry: RetryPolicy{MaxAttempts: 4, Seed: 5},
		Timeout: time.Minute, DetTiming: true, Dir: "/tmp/work-a",
	}
	key := base.Key()
	if len(key) != 64 || key != base.Key() {
		t.Fatalf("key %q is not a stable hex SHA-256", key)
	}
	for _, tc := range []struct {
		name   string
		change func(*Unit)
	}{
		{"system", func(u *Unit) { u.System = Systems["joda-evicted"] }},
		{"threads", func(u *Unit) { u.Threads = 4 }},
		{"import", func(u *Unit) { u.Imports = []Import{{Name: "NoBench", Path: "/data/a.json"}} }},
		{"data key", func(u *Unit) { u.DataKey = "nobench_1000" }},
		{"seed", func(u *Unit) { u.Seed = 8 }},
		{"query", func(u *Unit) { u.Queries = append(plainQueries(2), &query.Query{ID: "q3", Base: "other"}) }},
		{"fault rate", func(u *Unit) { u.Faults.Rate = 0.5 }},
		{"fault seed", func(u *Unit) { u.Faults.Seed = 6 }},
		{"retry attempts", func(u *Unit) { u.Retry.MaxAttempts = 2 }},
		{"retry seed", func(u *Unit) { u.Retry.Seed = 6 }},
		{"timeout", func(u *Unit) { u.Timeout = time.Second }},
		{"det-timing", func(u *Unit) { u.DetTiming = false }},
	} {
		u := base
		tc.change(&u)
		if u.Key() == key {
			t.Errorf("changing the %s keeps the key", tc.name)
		}
	}
	u := base
	u.Imports = []Import{{Name: "Twitter", Path: "/elsewhere/b.json"}}
	u.Dir = "/tmp/work-b"
	if u.Key() != key {
		t.Error("moving the import file or the scratch dir changes the key")
	}

	// Settings that change nothing key alike.
	for _, tc := range []struct {
		name string
		a, b func(*Unit)
	}{
		{"fault seed at rate 0",
			func(u *Unit) { u.Faults = faultsim.Options{Seed: 5} },
			func(u *Unit) { u.Faults = faultsim.Options{} }},
		{"retry seed at one attempt",
			func(u *Unit) { u.Retry = RetryPolicy{MaxAttempts: 1, Seed: 9} },
			func(u *Unit) { u.Retry = RetryPolicy{} }},
		{"retry seed at no attempts",
			func(u *Unit) { u.Retry = RetryPolicy{Seed: 9} },
			func(u *Unit) { u.Retry = RetryPolicy{MaxAttempts: -2} }},
		{"retry seed 0 and 1",
			func(u *Unit) { u.Retry.Seed = 0 },
			func(u *Unit) { u.Retry.Seed = 1 }},
	} {
		a, b := base, base
		tc.a(&a)
		tc.b(&b)
		if a.Key() != b.Key() {
			t.Errorf("%s: keys differ", tc.name)
		}
	}
}

// TestDataKey: two environments that differ only in a dataset's document
// count, or only in the base seed, give the same session different unit
// keys, so a resume under a changed -twitter-docs or -seed replays nothing
// of the other run even where the queries happen to match.
func TestDataKey(t *testing.T) {
	sess := &core.Session{Queries: plainQueries(3), Seed: 7}
	key := func(cfg Config) string {
		t.Helper()
		env, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		ds, err := env.Twitter()
		if err != nil {
			t.Fatal(err)
		}
		return env.unit(Systems["joda"], 0, ds, sess).Key()
	}
	base := Config{Dir: t.TempDir(), TwitterDocs: 100, Seed: 3}
	for _, tc := range []struct {
		name   string
		change func(*Config)
	}{
		{"document count", func(c *Config) { c.TwitterDocs = 101 }},
		{"seed", func(c *Config) { c.Seed = 4 }},
	} {
		cfg := base
		tc.change(&cfg)
		if key(base) == key(cfg) {
			t.Errorf("changing the %s keeps the unit key", tc.name)
		}
	}
}
