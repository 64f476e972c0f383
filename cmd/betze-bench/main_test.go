package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/errfs"
	"github.com/joda-explore/betze/internal/harness"
	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/runlog"
)

// TestMain doubles as the child process of the kill-and-resume integration
// test: when re-executed with BETZE_BENCH_CHILD=1 the test binary behaves
// like the real betze-bench, running the CLI with the args passed through
// BETZE_BENCH_ARGS (unit-separator-delimited) — the process the test
// SIGKILLs mid-experiment.
func TestMain(m *testing.M) {
	if os.Getenv("BETZE_BENCH_CHILD") == "1" {
		args := strings.Split(os.Getenv("BETZE_BENCH_ARGS"), "\x1f")
		if err := run(args, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "betze-bench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// workFlags are the work-shaping flags shared by every run of the
// integration test: baseline, child and resume agree on them, so the
// resume replays every session the child saved, while artifact directories
// differ per run.
func workFlags() []string {
	return []string{
		"-exp", "table2", "-det-timing",
		"-twitter-docs", "2500", "-nobench-docs", "1500",
		"-timeout", "60s",
	}
}

// journalSessionCount recovers the journal and tallies table2's session
// checkpoints and their keys (duplicate keys mean completed work was
// re-executed).
func journalSessionCount(t *testing.T, dir string) (int, map[string]int) {
	t.Helper()
	rec, err := runlog.Recover(dir)
	if err != nil {
		t.Fatalf("recovering %s: %v", dir, err)
	}
	keys := map[string]int{}
	n := 0
	for _, payload := range rec.Records {
		var r struct{ Type, Key string }
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatalf("bad journal payload %q: %v", payload, err)
		}
		if r.Type == jobqueue.RecCheckpoint && strings.HasPrefix(r.Key, "table2/") {
			n++
			keys[r.Key]++
		}
	}
	return n, keys
}

// TestKillAndResume is the acceptance test of the durability layer: run
// betze-bench as a subprocess, SIGKILL it mid-experiment once the journal
// holds at least two completed sessions, resume from the journal, and
// byte-compare the final exports against an uninterrupted run.
func TestKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table2 twice and a killed partial run")
	}
	baseExport := t.TempDir()
	baseArgs := append(workFlags(),
		"-journal", filepath.Join(t.TempDir(), "journal"),
		"-export-dir", baseExport, "-dir", t.TempDir())
	if err := run(baseArgs, io.Discard); err != nil {
		t.Fatalf("baseline run: %v", err)
	}

	childJournal := filepath.Join(t.TempDir(), "journal")
	childExport := t.TempDir()
	childArgs := append(workFlags(),
		"-journal", childJournal, "-export-dir", childExport, "-dir", t.TempDir())
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"BETZE_BENCH_CHILD=1",
		"BETZE_BENCH_ARGS="+strings.Join(childArgs, "\x1f"))
	var childOut bytes.Buffer
	cmd.Stdout = &childOut
	cmd.Stderr = &childOut
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	// Kill as soon as two sessions are durably checkpointed. Reading a journal
	// under active writes legitimately sees a torn tail; only completed
	// records count.
	deadline := time.After(2 * time.Minute)
	killed := false
poll:
	for {
		select {
		case err := <-done:
			t.Logf("child finished before the kill (%v); resume still must replay it.\n%s", err, childOut.String())
			break poll
		case <-deadline:
			cmd.Process.Kill()
			<-done
			t.Fatalf("child never journaled two sessions:\n%s", childOut.String())
		case <-time.After(50 * time.Millisecond):
		}
		if rec, err := runlog.Recover(childJournal); err == nil {
			sessions := 0
			for _, payload := range rec.Records {
				if bytes.Contains(payload, []byte(`"key":"table2/`)) {
					sessions++
				}
			}
			if sessions >= 2 {
				if err := cmd.Process.Kill(); err != nil {
					t.Fatalf("kill: %v", err)
				}
				<-done
				killed = true
				break poll
			}
		}
	}
	if killed {
		partial, _ := journalSessionCount(t, childJournal)
		if partial >= 10 {
			t.Logf("child completed all %d sessions before dying; kill landed late", partial)
		} else {
			t.Logf("killed child after %d of 10 sessions", partial)
		}
	}

	resumeArgs := append(workFlags(),
		"-resume", childJournal, "-export-dir", childExport, "-dir", t.TempDir())
	var resumeOut bytes.Buffer
	if err := run(resumeArgs, &resumeOut); err != nil {
		t.Fatalf("resume run: %v\n%s", err, resumeOut.String())
	}
	if !strings.Contains(resumeOut.String(), "resuming: journal holds") {
		t.Errorf("resume banner missing:\n%s", resumeOut.String())
	}

	// The resumed exports must be byte-identical to the uninterrupted run.
	for _, name := range []string{"table2.csv", "table2.json"} {
		want, err := os.ReadFile(filepath.Join(baseExport, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(childExport, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs after kill+resume:\n--- baseline\n%s\n--- resumed\n%s", name, want, got)
		}
	}

	// Every session appears exactly once in the merged journal: completed
	// work was skipped, not re-executed.
	total, keys := journalSessionCount(t, childJournal)
	if total != 10 {
		t.Errorf("merged journal has %d session records, want 10", total)
	}
	for key, n := range keys {
		if n > 1 {
			t.Errorf("session %s journaled %d times", key, n)
		}
	}
}

// tinyTable2 are the flags of a table2 run small enough to repeat per case.
func tinyTable2() []string {
	return []string{"-exp", "table2", "-det-timing", "-twitter-docs", "100", "-nobench-docs", "100"}
}

// copyJournal copies the run journal in dir (one flat directory) to a new
// directory and returns it, so each case resumes the same journal.
func copyJournal(t *testing.T, dir string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "journal")
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// resumeSkips reads harness.resume_skips from a -metrics-out snapshot.
func resumeSkips(t *testing.T, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters["harness.resume_skips"]
}

// TestResumeWithChangedFlags: -resume accepts any flags. It replays every
// session whose key the journal holds and runs the rest, so the exports are
// byte-identical to a fresh run under the new flags, whether the journal's
// run finished or not. A changed dataset or seed is a different key; a
// setting that changes nothing (a fault seed without faults) is not.
func TestResumeWithChangedFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("runs table2 eleven times at tiny scale")
	}
	journal := filepath.Join(t.TempDir(), "journal")
	if err := run(append(tinyTable2(), "-journal", journal, "-dir", t.TempDir()), io.Discard); err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	for _, tc := range []struct {
		name  string
		flags []string
		skips int64
	}{
		{"nobench docs", []string{"-nobench-docs", "150"}, 5},
		{"seed", []string{"-seed", "999"}, 0},
		{"faults and retries", []string{"-faults", "0.3", "-retries", "2"}, 0},
		{"fault seed without faults", []string{"-fault-seed", "5"}, 10},
		{"another experiment", []string{"-exp", "table2,table4"}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(tinyTable2(), tc.flags...)
			fresh := t.TempDir()
			if err := run(append(args, "-export-dir", fresh, "-dir", t.TempDir()), io.Discard); err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			resumed, metrics := t.TempDir(), filepath.Join(t.TempDir(), "metrics.json")
			var out bytes.Buffer
			err := run(append(args, "-resume", copyJournal(t, journal),
				"-export-dir", resumed, "-metrics-out", metrics, "-dir", t.TempDir()), &out)
			if err != nil {
				t.Fatalf("resume: %v\n%s", err, out.String())
			}
			if skips := resumeSkips(t, metrics); skips != tc.skips {
				t.Errorf("resume skipped %d sessions, want %d", skips, tc.skips)
			}
			entries, err := os.ReadDir(fresh)
			if err != nil || len(entries) == 0 {
				t.Fatalf("fresh run exported nothing (%v)", err)
			}
			for _, e := range entries {
				want, err := os.ReadFile(filepath.Join(fresh, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(filepath.Join(resumed, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%s differs from a fresh run:\n--- fresh\n%s\n--- resumed\n%s", e.Name(), want, got)
				}
			}
		})
	}
}

func TestJournalAndResumeMutuallyExclusive(t *testing.T) {
	err := run([]string{"-journal", "a", "-resume", "b"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("got %v", err)
	}
}

// TestExpList: -exp takes a comma-separated list, run in list order in one
// process and one journal; an unknown or repeated ID is refused, naming it,
// before any work or journal.
func TestExpList(t *testing.T) {
	for _, tc := range []struct{ exp, want string }{
		{"table1,nope", `unknown experiment "nope"`},
		{"table1,table4,table1", `"table1" listed twice`},
	} {
		jdir := filepath.Join(t.TempDir(), "journal")
		var out bytes.Buffer
		err := run([]string{"-exp", tc.exp, "-journal", jdir, "-dir", t.TempDir()}, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("-exp %s: %v, want an error containing %s", tc.exp, err, tc.want)
		}
		if _, serr := os.Stat(jdir); out.Len() != 0 || serr == nil {
			t.Errorf("-exp %s did work before rejecting it:\n%s", tc.exp, out.String())
		}
	}

	jdir := filepath.Join(t.TempDir(), "journal")
	args := []string{"-exp", "table4,table1", "-twitter-docs", "300", "-dir", t.TempDir()}
	var out bytes.Buffer
	if err := run(append(args, "-journal", jdir), &out); err != nil {
		t.Fatal(err)
	}
	first, second := strings.Index(out.String(), "=== table4:"), strings.Index(out.String(), "=== table1:")
	if first < 0 || second < first {
		t.Errorf("experiments not run in list order:\n%s", out.String())
	}
	out.Reset()
	if err := run(append(args, "-resume", jdir), &out); err != nil {
		t.Fatal(err)
	}
	first, second = strings.Index(out.String(), "=== table4:"), strings.Index(out.String(), "=== table1:")
	if first < 0 || second < first {
		t.Errorf("resume did not run the experiments in list order:\n%s", out.String())
	}
}

func TestJournalRefusesExistingJournal(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	if err := run([]string{"-exp", "table1", "-journal", jdir, "-dir", t.TempDir()}, io.Discard); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-exp", "table1", "-journal", jdir, "-dir", t.TempDir()}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "journal") {
		t.Errorf("existing journal accepted: %v", err)
	}
}

// TestResumeRefusesOldJournalFormat: a journal of the record format
// betze-bench wrote before its runs became jobqueue jobs (run_start,
// experiment_start, session, … records) is refused, and left as it was:
// nothing of it is replayed and nothing is appended to it.
func TestResumeRefusesOldJournalFormat(t *testing.T) {
	jdir := filepath.Join(t.TempDir(), "journal")
	w, err := runlog.Create(jdir, runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{
		`{"type":"run_start","fingerprint":"{\"exp\":\"table1\"}"}`,
		`{"type":"experiment_start","experiment":"table2"}`,
		`{"type":"session","key":{"experiment":"table2","engine":"JODA","dataset":"Twitter","seed":123,"occurrence":0},` +
			`"session":{"engine":"JODA","seed":123,"import":{"docs":8,"bytes":900,"duration_us":9},"completed":0,"skipped":0}}`,
	} {
		if err := w.AppendSync([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(jdir, "current.wal")
	before, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-exp", "table1", "-resume", jdir, "-dir", t.TempDir()}, &out)
	if err == nil {
		t.Fatalf("old-format journal resumed:\n%s", out.String())
	}
	if strings.Contains(out.String(), "===") {
		t.Errorf("an experiment ran before the refusal:\n%s", out.String())
	}
	after, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("refused journal changed: %d bytes before, %d after", len(before), len(after))
	}
}

// TestThreeResumesInARow: a run killed after one more session checkpoint
// each time, and resumed after every kill, still finishes with the
// uninterrupted run's exports. Every resume claims the run's job once
// more, so this fails if the run journal keeps jobqueue's default claim
// bound, which abandons a job claimed three times.
func TestThreeResumesInARow(t *testing.T) {
	cfg, exp := crashFuzzWork(t)
	var fsys errfs.FS = errfs.NewMem()
	want, err := runJournaled(fsys, cfg, exp)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if n, err := sessionCheckpoints(fsys, exp); err != nil || n < 3 {
		t.Fatalf("uninterrupted run checkpointed %d sessions (%v), want at least 3", n, err)
	}
	for kill := 1; kill <= 3; kill++ {
		fsys = killedAfterSessions(t, fsys, exp, kill)
		got, err := runJournaled(fsys, cfg, exp)
		if err != nil {
			t.Fatalf("resume %d: %v", kill, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("resume %d exports differ:\n--- uninterrupted\n%s\n--- resumed\n%s", kill, want, got)
		}
	}
}

// killedAfterSessions returns a new in-memory filesystem holding the run
// journal on fsys up to and including its k-th session checkpoint: the
// state a SIGKILL leaves once that checkpoint is durable.
func killedAfterSessions(t *testing.T, fsys errfs.FS, exp harness.Experiment, k int) errfs.FS {
	t.Helper()
	rec, err := runlog.RecoverFS(fsys, crashFuzzJournal)
	if err != nil {
		t.Fatal(err)
	}
	killed := errfs.NewMem()
	w, err := runlog.Create(crashFuzzJournal, runlog.Options{FS: killed})
	if err != nil {
		t.Fatal(err)
	}
	sessions := 0
	for _, payload := range rec.Records {
		if err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
		var r struct{ Type, Key string }
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatal(err)
		}
		if r.Type == jobqueue.RecCheckpoint && strings.HasPrefix(r.Key, exp.ID+"/") {
			if sessions++; sessions == k {
				break
			}
		}
	}
	if sessions != k {
		t.Fatalf("journal holds %d session checkpoints, want %d", sessions, k)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return killed
}

func TestResumeMissingJournal(t *testing.T) {
	err := run([]string{"-resume", filepath.Join(t.TempDir(), "nope")}, io.Discard)
	if err == nil {
		t.Error("missing journal accepted")
	}
}

// captureStderr runs fn with os.Stderr redirected to a file (the flag
// package prints usage there) and returns what was written.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestArgumentErrors pins the CLI's rejections: a positional argument (a
// forgotten -exp used to run every experiment, and flag parsing stops at the
// first positional, silently dropping the flags after it), the retired
// -perf and -crashfuzz flags, counts below 1 (a negative sweep size used to
// panic in the dataset generator) and negative sizes and timeouts (they used
// to run at the defaults). Each is refused before the journal is opened.
func TestArgumentErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"positional", []string{"table2"}, `unexpected argument "table2"`},
		{"positional before flags", []string{"table2", "-det-timing"}, `unexpected argument "table2"`},
		{"positional after flags", []string{"-exp", "table1", "stray"}, `unexpected argument "stray"`},
		{"retired perf flag", []string{"-perf"}, "flag provided but not defined: -perf"},
		{"retired crashfuzz flag", []string{"-crashfuzz"}, "flag provided but not defined: -crashfuzz"},
		{"negative twitter docs", []string{"-twitter-docs", "-5"}, "-twitter-docs: negative value -5"},
		{"negative nobench docs", []string{"-nobench-docs", "-1"}, "-nobench-docs: negative value -1"},
		{"negative reddit docs", []string{"-reddit-docs", "-2"}, "-reddit-docs: negative value -2"},
		{"negative sessions", []string{"-sessions", "-3"}, "-sessions: negative value -3"},
		{"negative grid sessions", []string{"-grid-sessions", "-4"}, "-grid-sessions: negative value -4"},
		{"negative timeout", []string{"-timeout", "-5s"}, "-timeout: negative value -5s"},
		{"negative sweep size", []string{"-exp", "fig10", "-nobench-sweep", "-5"}, "-nobench-sweep: count -5 below 1"},
		{"thread counts below 1", []string{"-exp", "fig9", "-threads", "-3,0"}, "-threads: count -3 below 1"},
		{"zero thread count", []string{"-exp", "fig9", "-threads", "2,0"}, "-threads: count 0 below 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jdir := filepath.Join(t.TempDir(), "journal")
			args := append([]string{"-journal", jdir}, tc.args...)
			var out bytes.Buffer
			var err error
			captureStderr(t, func() { err = run(args, &out) })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%q) = %v, want an error containing %q", args, err, tc.want)
			}
			if _, serr := os.Stat(jdir); out.Len() != 0 || serr == nil {
				t.Errorf("run(%q) did work before rejecting its arguments:\n%s", args, out.String())
			}
		})
	}
}

// TestExpHelpListsEveryExperiment: the -exp help is built from the
// experiment registry, so it cannot omit an experiment again.
func TestExpHelpListsEveryExperiment(t *testing.T) {
	var err error
	usage := captureStderr(t, func() { err = run([]string{"-h"}, io.Discard) })
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	var help string
	for _, line := range strings.Split(usage, "\n") {
		if strings.Contains(line, "experiment id (") {
			help = line
		}
	}
	for _, e := range harness.Experiments() {
		if !strings.Contains(help, e.ID+",") && !strings.Contains(help, e.ID+")") {
			t.Errorf("-exp help %q does not list %s", help, e.ID)
		}
	}
}

func TestParseInts(t *testing.T) {
	got, err := parseInts("1000, 10000,100000")
	if err != nil || !reflect.DeepEqual(got, []int{1000, 10000, 100000}) {
		t.Errorf("parseInts = %v, %v", got, err)
	}
	if got, err := parseInts(""); err != nil || got != nil {
		t.Errorf("empty spec = %v, %v", got, err)
	}
	if _, err := parseInts("12,abc"); err == nil {
		t.Errorf("malformed spec accepted")
	}
	if _, err := parseInts("4,-1"); err == nil {
		t.Errorf("negative count accepted")
	}
}
