package harness

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/runlog"
)

const testFingerprint = "test-fingerprint"

// journaledRun executes one experiment with checkpointing into jdir and an
// optional replay, returning the result and whether it was resumed whole.
func journaledRun(t *testing.T, cfg Config, exp Experiment, jdir string, rp *Replay) (*Result, bool) {
	t.Helper()
	var w *runlog.Writer
	var err error
	if rp == nil {
		w, err = runlog.Create(jdir, runlog.Options{NoSync: true})
	} else {
		w, err = runlog.Open(jdir, runlog.Options{NoSync: true})
	}
	if err != nil {
		t.Fatal(err)
	}
	j := NewRunJournal(w, cfg.Obs)
	j.RunStart(testFingerprint)
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	env.SetJournal(j, rp)
	res, resumed, err := env.RunExperiment(context.Background(), exp)
	if err != nil {
		t.Fatalf("%s: %v", exp.ID, err)
	}
	j.RunEnd()
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	return res, resumed
}

// TestRunExperimentWithoutJournal pins the un-journaled path: RunExperiment
// with no SetJournal must execute normally — every RunJournal method is
// nil-receiver safe, not just append.
func TestRunExperimentWithoutJournal(t *testing.T) {
	env := newTinyEnv(t)
	exp := Experiment{ID: "table2", Run: Table2}
	res, resumed, err := env.RunExperiment(context.Background(), exp)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Error("un-journaled run reported as resumed")
	}
	if res == nil || len(res.Tables) == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	var j *RunJournal
	j.RunStart("fp")
	j.BeginExperiment("table2")
	j.Session(WorkKey{}, SessionRecord{})
	j.EndExperiment("table2", res)
	j.RunEnd()
	if err := j.Err(); err != nil {
		t.Errorf("nil journal Err: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("nil journal Close: %v", err)
	}
}

// exports renders a result in every machine- and human-readable form.
func exports(t *testing.T, res *Result) (string, string, string) {
	t.Helper()
	js, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return res.Text(), res.CSV(), string(js)
}

// countRecords tallies journal record types in jdir.
func countRecords(t *testing.T, jdir string) map[string]int {
	t.Helper()
	rec, err := runlog.Recover(jdir)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, payload := range rec.Records {
		var jr struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(payload, &jr); err != nil {
			t.Fatalf("bad journal payload: %v", err)
		}
		counts[jr.Type]++
	}
	return counts
}

// TestResumeDeterminism is the satellite acceptance test at unit scale: run
// an experiment journaled, cut the journal after k completed sessions (the
// effect of a crash), resume into a fresh environment, and assert the merged
// result is byte-identical to the uninterrupted run for every exporter.
func TestResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table2 twice at tiny scale")
	}
	exp, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t)
	cfg.DetTiming = true

	fullDir := t.TempDir()
	baseline, resumed := journaledRun(t, cfg, exp, fullDir, nil)
	if resumed {
		t.Fatal("fresh run reported resumed")
	}
	wantText, wantCSV, wantJSON := exports(t, baseline)
	full := countRecords(t, fullDir)
	totalSessions := full[recSession]
	if totalSessions != 10 { // 5 engine specs x 2 datasets
		t.Fatalf("table2 journaled %d sessions, want 10", totalSessions)
	}

	// Cut the journal after the 3rd completed session — the on-disk state a
	// SIGKILL mid-experiment leaves behind.
	const keep = 3
	rec, err := runlog.Recover(fullDir)
	if err != nil {
		t.Fatal(err)
	}
	cutDir := t.TempDir()
	cw, err := runlog.Create(cutDir, runlog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	sessions := 0
	for _, payload := range rec.Records {
		var jr struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(payload, &jr); err != nil {
			t.Fatal(err)
		}
		if jr.Type == recRunEnd || jr.Type == recExperimentEnd {
			continue
		}
		if err := cw.Append(payload); err != nil {
			t.Fatal(err)
		}
		if jr.Type == recSession {
			if sessions++; sessions == keep {
				break
			}
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	cutRec, err := runlog.Recover(cutDir)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplay(cutRec)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Fingerprint() != testFingerprint {
		t.Fatalf("replay fingerprint = %q", rp.Fingerprint())
	}
	if rp.Sessions() != keep {
		t.Fatalf("replay holds %d sessions, want %d", rp.Sessions(), keep)
	}

	// Resume in a fresh environment (different dataset dir): deterministic
	// generation must reproduce the identical work keys and skip the prefix.
	resumeCfg := cfg
	resumeCfg.Dir = t.TempDir()
	reg := obs.NewRegistry()
	resumeCfg.Obs = obs.Scope{Metrics: reg}
	got, resumed := journaledRun(t, resumeCfg, exp, cutDir, rp)
	if resumed {
		t.Fatal("partially-complete experiment reported resumed whole")
	}
	gotText, gotCSV, gotJSON := exports(t, got)
	if gotText != wantText {
		t.Errorf("Text export differs after resume:\n--- want\n%s\n--- got\n%s", wantText, gotText)
	}
	if gotCSV != wantCSV {
		t.Errorf("CSV export differs after resume:\n--- want\n%s\n--- got\n%s", wantCSV, gotCSV)
	}
	if gotJSON != wantJSON {
		t.Errorf("JSON export differs after resume:\n--- want\n%s\n--- got\n%s", wantJSON, gotJSON)
	}
	if skips := reg.Counter(obs.MHarnessResumeSkips).Value(); skips != keep {
		t.Errorf("resume skips = %d, want %d", skips, keep)
	}
	// The merged journal holds every session exactly once: the skipped
	// prefix from before the cut plus only the re-executed tail.
	merged := countRecords(t, cutDir)
	if merged[recSession] != totalSessions {
		t.Errorf("merged journal has %d session records, want %d", merged[recSession], totalSessions)
	}
	if merged[recExperimentEnd] != 1 || merged[recRunEnd] != 1 {
		t.Errorf("merged journal counts: %v", merged)
	}

	// A second resume finds the completed experiment and skips it whole,
	// re-exporting the journaled result byte-identically.
	rec2, err := runlog.Recover(cutDir)
	if err != nil {
		t.Fatal(err)
	}
	rp2, err := NewReplay(rec2)
	if err != nil {
		t.Fatal(err)
	}
	again, resumed := journaledRun(t, resumeCfg, exp, cutDir, rp2)
	if !resumed {
		t.Fatal("completed experiment not skipped whole")
	}
	againText, againCSV, againJSON := exports(t, again)
	if againText != wantText || againCSV != wantCSV || againJSON != wantJSON {
		t.Error("whole-experiment resume exports differ from baseline")
	}
}

// TestInterruptedRunCheckpointsNothing pins the Ctrl-C path: an experiment
// run under an already-cancelled context fails every session at once, and
// none of those failures may reach the journal — otherwise a resume would
// replay a table of "load failed" cells as a completed result. Resuming
// from what the interrupted run left must reproduce the uninterrupted
// exports byte for byte.
func TestInterruptedRunCheckpointsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table2 twice at tiny scale")
	}
	exp, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t)
	cfg.DetTiming = true
	baseline, _ := journaledRun(t, cfg, exp, t.TempDir(), nil)
	wantText, wantCSV, wantJSON := exports(t, baseline)

	jdir := t.TempDir()
	w, err := runlog.Create(jdir, runlog.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	j := NewRunJournal(w, cfg.Obs)
	j.RunStart(testFingerprint)
	cancelledCfg := cfg
	cancelledCfg.Dir = t.TempDir()
	env, err := NewEnv(cancelledCfg)
	if err != nil {
		t.Fatal(err)
	}
	env.SetJournal(j, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := env.RunExperiment(ctx, exp)
	env.Close()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: res=%v err=%v, want context.Canceled", res, err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	if got := countRecords(t, jdir); got[recSession] != 0 || got[recExperimentEnd] != 0 {
		t.Fatalf("interrupted run checkpointed work: %v", got)
	}

	rec, err := runlog.Recover(jdir)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplay(rec)
	if err != nil {
		t.Fatal(err)
	}
	resumeCfg := cfg
	resumeCfg.Dir = t.TempDir()
	got, resumed := journaledRun(t, resumeCfg, exp, jdir, rp)
	if resumed {
		t.Fatal("interrupted experiment replayed as complete")
	}
	gotText, gotCSV, gotJSON := exports(t, got)
	if gotText != wantText || gotCSV != wantCSV || gotJSON != wantJSON {
		t.Errorf("resumed exports differ from the uninterrupted run:\n--- want\n%s\n--- got\n%s", wantText, gotText)
	}
}

// TestSessionTimeoutIsJournaled is the other side of the same line: a
// session that hit only its own Cfg.Timeout, not a cancelled parent
// context, is a genuine result and is checkpointed like any other.
func TestSessionTimeoutIsJournaled(t *testing.T) {
	exp, err := ByID("table2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t)
	cfg.Timeout = time.Nanosecond
	jdir := t.TempDir()
	res, _ := journaledRun(t, cfg, exp, jdir, nil)
	if cell := res.Tables[0].Rows[0][1]; cell != "load failed" {
		t.Errorf("timed-out session cell = %q, want load failed", cell)
	}
	if got := countRecords(t, jdir); got[recSession] != 10 || got[recExperimentEnd] != 1 {
		t.Errorf("journal counts %v, want 10 sessions and 1 experiment_end", got)
	}
}

func TestReplayRejectsFingerprintChange(t *testing.T) {
	mk := func(fp string) []byte {
		b, _ := json.Marshal(journalRecord{Type: recRunStart, Fingerprint: fp})
		return b
	}
	_, err := NewReplay(&runlog.Recovery{Records: [][]byte{mk("a"), mk("b")}})
	if !errors.Is(err, ErrJournalMismatch) {
		t.Errorf("fingerprint change: %v, want ErrJournalMismatch", err)
	}
}

func TestReplayRejectsGarbageRecords(t *testing.T) {
	cases := [][]byte{
		[]byte("not json"),
		[]byte(`{"type":"alien"}`),
		[]byte(`{"type":"session"}`),
		[]byte(`{"type":"experiment_end","experiment":"x"}`),
	}
	for _, payload := range cases {
		_, err := NewReplay(&runlog.Recovery{Records: [][]byte{payload}})
		if !errors.Is(err, ErrBadJournalRecord) {
			t.Errorf("payload %q: %v, want ErrBadJournalRecord", payload, err)
		}
	}
}

// TestSessionRecordRoundTrip: a journaled record replays as the record
// that was written, and the render path reads it the same way.
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
	key := WorkKey{Experiment: "table2", Engine: "JODA", Dataset: "Twitter", Seed: 7}
	payload, err := json.Marshal(journalRecord{Type: recSession, Key: &key, Session: &orig})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewReplay(&runlog.Recovery{Records: [][]byte{payload}})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := rp.Session(key)
	if !ok {
		t.Fatal("journaled session not replayed")
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

// TestReplayRejectsLegacySessionShape: a session journaled in the record
// shape before SessionRecord (query_times, total, wall) must fail the
// resume instead of replaying as an empty session.
func TestReplayRejectsLegacySessionShape(t *testing.T) {
	payload := []byte(`{"type":"session","key":{"experiment":"table2","engine":"JODA","dataset":"Twitter","seed":123,"occurrence":0},` +
		`"session":{"engine":"JODA","import":{"Docs":8,"Bytes":900,"StoredBytes":700,"Duration":9000},` +
		`"query_times":[1000,2000],"total":3000,"wall":12000}}`)
	_, err := NewReplay(&runlog.Recovery{Records: [][]byte{payload}})
	if !errors.Is(err, ErrBadJournalRecord) {
		t.Errorf("legacy session record: %v, want ErrBadJournalRecord", err)
	}
}

// TestWorkKeyOccurrences pins the repeat-disambiguation rule: identical
// identities get increasing occurrences, scoped per experiment.
func TestWorkKeyOccurrences(t *testing.T) {
	env := &Env{journal: &RunJournal{}}
	env.beginExperiment("fig9")
	k1, ok := env.nextKey("JODA", "twitter", 123)
	k2, _ := env.nextKey("JODA", "twitter", 123)
	k3, _ := env.nextKey("MongoDB", "twitter", 123)
	if !ok || k1.Occurrence != 0 || k2.Occurrence != 1 || k3.Occurrence != 0 {
		t.Errorf("occurrences: %v %v %v", k1, k2, k3)
	}
	env.beginExperiment("table2")
	k4, _ := env.nextKey("JODA", "twitter", 123)
	if k4.Occurrence != 0 || k4.Experiment != "table2" {
		t.Errorf("experiment scoping: %v", k4)
	}
	// Outside RunExperiment nothing is tracked.
	env.beginExperiment("")
	if _, ok := env.nextKey("JODA", "twitter", 123); ok {
		t.Error("tracked outside an experiment")
	}
	untracked := &Env{}
	if _, ok := untracked.nextKey("JODA", "twitter", 123); ok {
		t.Error("tracked without journal or replay")
	}
}
