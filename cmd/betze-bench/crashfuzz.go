package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/joda-explore/betze/internal/errfs"
	"github.com/joda-explore/betze/internal/errfs/crashpoint"
	"github.com/joda-explore/betze/internal/harness"
	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/runlog"
)

// crashFuzzLimits bounds the enumeration per workload: the bounded profile
// backs `make crashfuzz` in CI, the deep profile is for manual runs.
type crashFuzzLimits struct {
	perWorkload  int // crash points per package workload (<= 0: exhaustive)
	resumePoints int // harness resumes (<= 0: one per fsync boundary)
}

// runCrashFuzz enumerates simulated power-loss states across the durability
// stack and re-runs each layer's recovery at every one, checking the four
// invariants the stack claims: no acked record lost (runlog), no torn
// artifact under its final name (fsatomic), replay consistent with the ack
// history (jobqueue), and byte-identical exports from a resumed
// checkpointed run (harness). The whole schedule derives from a single seed.
func runCrashFuzz(out io.Writer, seed int64, deep bool) error {
	limits := crashFuzzLimits{perWorkload: 180, resumePoints: 4}
	if deep {
		limits = crashFuzzLimits{perWorkload: 0, resumePoints: 0}
	}

	total := crashpoint.Report{Workload: "total"}
	for _, phase := range []struct {
		name string
		run  func(int64, int) crashpoint.Report
	}{
		{"runlog", crashpoint.FuzzRunlog},
		{"fsatomic", crashpoint.FuzzFsatomic},
		{"jobqueue", crashpoint.FuzzJobqueue},
	} {
		rep := phase.run(seed, limits.perWorkload)
		fmt.Fprintf(out, "crashfuzz %-8s %4d crash points, %d violation(s)\n",
			phase.name, rep.Points, len(rep.Violations))
		total.Merge(rep)
	}

	points, violations, err := crashFuzzHarness(seed, limits.resumePoints)
	if err != nil {
		return fmt.Errorf("crashfuzz harness: %w", err)
	}
	fmt.Fprintf(out, "crashfuzz %-8s %4d crash points, %d violation(s)\n",
		"harness", points, len(violations))
	total.Points += points
	total.Violations = append(total.Violations, violations...)

	fmt.Fprintf(out, "crashfuzz total    %4d crash points (seed %d)\n", total.Points, seed)
	if len(total.Violations) > 0 {
		for _, v := range total.Violations {
			fmt.Fprintf(out, "  VIOLATION %s\n", v)
		}
		return fmt.Errorf("%d invariant violation(s) across %d crash points", len(total.Violations), total.Points)
	}
	fmt.Fprintln(out, "all invariants hold")
	return nil
}

// crashFuzzWork is the checkpointed run behind invariant 4: Fig. 5 on 300
// Twitter documents with one session per preset checkpoints three sessions,
// so a crash can fall between two session checkpoints.
// Deterministic timing makes byte equality of the exports the meaningful
// equality.
func crashFuzzWork(dataDir string) (harness.Config, harness.Experiment, error) {
	cfg := harness.Config{
		Dir: dataDir, TwitterDocs: 300, Sessions: 1, Seed: 123, DetTiming: true,
	}
	exp, err := harness.ByID("fig5")
	return cfg, exp, err
}

// crashFuzzJournal is the run journal's directory on the in-memory
// filesystem.
const crashFuzzJournal = "journal"

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

// crashFuzzHarness checks invariant 4: a checkpointed run journaled over a
// recording filesystem, crashed at a sync boundary and resumed from the
// surviving journal, exports byte-identical results. At least one resume
// must start from a journal holding some but not all of the sessions.
func crashFuzzHarness(seed int64, resumePoints int) (int, []crashpoint.Violation, error) {
	dataDir, err := os.MkdirTemp("", "betze-crashfuzz-*")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dataDir)
	cfg, exp, err := crashFuzzWork(dataDir)
	if err != nil {
		return 0, nil, err
	}

	// Baseline: the uninterrupted run, journaled over a recording FS.
	mem := errfs.NewMem()
	baseline, err := runJournaled(mem, cfg, exp)
	if err != nil {
		return 0, nil, fmt.Errorf("baseline run: %w", err)
	}
	sessions, err := sessionCheckpoints(mem, exp)
	if err != nil {
		return 0, nil, err
	}
	trace := mem.Trace()

	// Crash at fsync boundaries (the stack's durability points) under the
	// pessimistic policy, resume from what survived, compare exports. A
	// bounded profile resumes only from the first boundary to leave each
	// number of session checkpoints: from nothing, from each partial run
	// and from a finished one.
	var violations []crashpoint.Violation
	diverged := func(pt crashpoint.Point, format string, args ...any) {
		violations = append(violations, crashpoint.Violation{Point: pt, Invariant: "resume-divergence", Detail: fmt.Sprintf(format, args...)})
	}
	points, last, midway := 0, -1, false
	for i, op := range trace {
		if op.Kind != errfs.OpFsync {
			continue
		}
		pt := crashpoint.Point{Index: i + 1, Policy: crashpoint.DropUnsynced, Seed: seed}
		crashed, err := crashpoint.Materialize(trace, pt)
		if err != nil {
			return points, violations, err
		}
		n, err := sessionCheckpoints(crashed, exp)
		if err != nil {
			return points, violations, fmt.Errorf("%s: recover: %w", pt, err)
		}
		if resumePoints > 0 && (n == last || points == resumePoints) {
			continue
		}
		points, last = points+1, n
		midway = midway || (n > 0 && n < sessions)
		resumed, err := runJournaled(crashed, cfg, exp)
		if err != nil {
			diverged(pt, "resumed run: %v", err)
			continue
		}
		if !bytes.Equal(resumed, baseline) {
			diverged(pt, "resumed export diverges from baseline (%d vs %d bytes)", len(resumed), len(baseline))
		}
	}
	if !midway {
		return points, violations, fmt.Errorf("no resume point fell between two of the %d session checkpoints", sessions)
	}
	return points, violations, nil
}
