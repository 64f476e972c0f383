package main

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/errfs"
	"github.com/joda-explore/betze/internal/errfs/crashpoint"
	"github.com/joda-explore/betze/internal/harness"
	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/runlog"
)

// crashFuzzJournal is the run journal's directory on the in-memory
// filesystem.
const crashFuzzJournal = "journal"

// crashFuzzWork is the checkpointed run behind invariant 4: Fig. 5 on 300
// Twitter documents with one session per preset checkpoints three sessions,
// so a crash can fall between two session checkpoints.
// Deterministic timing makes byte equality of the exports the meaningful
// equality.
func crashFuzzWork(t *testing.T) (harness.Config, harness.Experiment) {
	t.Helper()
	cfg := harness.Config{
		Dir: t.TempDir(), TwitterDocs: 300, Sessions: 1, Seed: 123, DetTiming: true,
	}
	exp, err := harness.ByID("fig5")
	if err != nil {
		t.Fatal(err)
	}
	return cfg, exp
}

// runJournaled runs exp as betze-bench -journal/-resume does, against the
// run journal on fsys: it resumes the job the journal holds, or starts one,
// and returns the result's JSON export.
func runJournaled(fsys errfs.FS, cfg harness.Config, exp harness.Experiment) ([]byte, error) {
	env, err := harness.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	ctx := context.Background()
	job, err := openRunJob(ctx, crashFuzzJournal, jobqueue.Options{FS: fsys})
	if err != nil {
		return nil, err
	}
	env.SetCheckpoints(job.checkpoints())
	res, err := env.RunExperiment(ctx, exp)
	if err == nil {
		err = env.CheckpointErr()
	}
	if ferr := job.finish(err); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	return res.JSON()
}

// sessionCheckpoints counts the session checkpoints of exp that survive in
// the run journal on fsys. Session keys are "<experiment>/<unit key>".
func sessionCheckpoints(fsys errfs.FS, exp harness.Experiment) (int, error) {
	rec, err := runlog.RecoverFS(fsys, crashFuzzJournal)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, payload := range rec.Records {
		var r struct{ Type, Key string }
		if err := json.Unmarshal(payload, &r); err != nil {
			return 0, err
		}
		if r.Type == jobqueue.RecCheckpoint && strings.HasPrefix(r.Key, exp.ID+"/") {
			n++
		}
	}
	return n, nil
}

// TestResumeAtEveryFsync checks invariant 4: a checkpointed run journaled
// over a recording filesystem, crashed at any fsync boundary (the stack's
// durability points) under the pessimistic policy and resumed from the
// surviving journal, exports byte-identical results. At least one resume
// must start from a journal holding some but not all of the sessions.
func TestResumeAtEveryFsync(t *testing.T) {
	cfg, exp := crashFuzzWork(t)

	// Baseline: the uninterrupted run, journaled over a recording FS.
	mem := errfs.NewMem()
	baseline, err := runJournaled(mem, cfg, exp)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	sessions, err := sessionCheckpoints(mem, exp)
	if err != nil {
		t.Fatal(err)
	}
	trace := mem.Trace()

	points, midway := 0, false
	for i, op := range trace {
		if op.Kind != errfs.OpFsync {
			continue
		}
		pt := crashpoint.Point{Index: i + 1, Policy: crashpoint.DropUnsynced}
		crashed, err := crashpoint.Materialize(trace, pt)
		if err != nil {
			t.Fatalf("%s: %v", pt, err)
		}
		n, err := sessionCheckpoints(crashed, exp)
		if err != nil {
			t.Fatalf("%s: recover: %v", pt, err)
		}
		points++
		midway = midway || (n > 0 && n < sessions)
		resumed, err := runJournaled(crashed, cfg, exp)
		if err != nil {
			t.Errorf("%s: resumed run: %v", pt, err)
			continue
		}
		if !bytes.Equal(resumed, baseline) {
			t.Errorf("%s: resumed export diverges from baseline (%d vs %d bytes)", pt, len(resumed), len(baseline))
		}
	}
	if points < 8 {
		t.Errorf("resumed at %d fsync boundaries, want >= 8", points)
	}
	if !midway {
		t.Errorf("no resume point fell between two of the %d session checkpoints", sessions)
	}
}
