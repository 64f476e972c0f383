// Command betze-bench regenerates every table and figure of the paper's
// evaluation (§VI) at a configurable scale. Run it without flags for a
// laptop-sized pass over all experiments, or select some with -exp, a
// comma-separated list of experiment IDs run in list order.
//
//	betze-bench -exp fig10 -nobench-sweep 1000,10000,100000,1000000
//	betze-bench -exp table2,table3 -twitter-docs 1500 -nobench-docs 1500
//	betze-bench -exp all -twitter-docs 50000 -sessions 30
//
// Observability: -trace streams per-session/per-query JSON-lines events,
// -metrics-out snapshots engine and harness metrics after the run, -format
// switches stdout between text, CSV and JSON rendering, and -export-dir
// writes every experiment's result as <id>.csv and <id>.json.
//
//	betze-bench -exp table2 -trace trace.jsonl -metrics-out metrics.json
//	betze-bench -exp fig10 -format csv -export-dir results/
//
// Robustness: -faults injects deterministic faults seeded by -fault-seed:
// transient query errors at the given rate, import errors and 2 ms latency
// spikes at half of it, engine crashes at a fifth, and at most two faulted
// attempts per operation. -retries n enables the resilient executor: n+1
// attempts per operation with jittered backoff (2 ms doubling to 50 ms),
// a circuit breaker (opens after 5 consecutive failed queries, half-open
// after 100 ms) and crash recovery.
//
//	betze-bench -exp resilience -faults 0.3 -fault-seed 7 -retries 3
//
// Durability: -journal writes a crash-safe run journal — the jobqueue
// journal betze-web's campaigns use, holding the run as one job that
// checkpoints every completed session under the hash of what it computes —
// and -resume continues such a journal under any flags: a session whose
// hash the journal holds is replayed, every other one runs and is saved.
// With -det-timing, measured durations are replaced by deterministic
// functions of each operation's work counters, so an interrupted-and-resumed
// run exports byte-identical results.
//
//	betze-bench -exp all -journal run.journal -export-dir results/
//	betze-bench -exp all -resume run.journal -export-dir results/
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/joda-explore/betze/internal/fsatomic"
	"github.com/joda-explore/betze/internal/harness"
	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/runlog"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "betze-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("betze-bench", flag.ContinueOnError)
	var cfg harness.Config
	experiments := harness.Experiments()
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	exp := fs.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+"), a comma-separated list of them, or 'all'")
	fs.StringVar(&cfg.Dir, "dir", "", "working directory for dataset files (default: temp)")
	fs.IntVar(&cfg.TwitterDocs, "twitter-docs", 0, "Twitter-like dataset size (default 8000; paper 29.6M)")
	fs.IntVar(&cfg.NoBenchDocs, "nobench-docs", 0, "NoBench dataset size (default 20000; paper 10M)")
	fs.IntVar(&cfg.RedditDocs, "reddit-docs", 0, "Reddit dataset size (default 20000; paper 53.9M)")
	fs.IntVar(&cfg.Sessions, "sessions", 0, "sessions per configuration (default 10; paper 30)")
	fs.IntVar(&cfg.GridSessions, "grid-sessions", 0, "sessions per alpha/beta cell (default 3; paper 20)")
	fs.DurationVar(&cfg.Timeout, "timeout", 0, "per-session timeout (default 2m; paper 2h/8h)")
	fs.Int64Var(&cfg.Seed, "seed", 0, "base seed (default 123)")
	sweep := fs.String("nobench-sweep", "", "comma-separated document counts for fig10")
	threads := fs.String("threads", "", "comma-separated thread counts for fig9")
	tracePath := fs.String("trace", "", "write per-query JSON-lines trace events to this file")
	metricsPath := fs.String("metrics-out", "", "write a metrics snapshot (JSON) to this file after the run")
	format := fs.String("format", "text", "stdout rendering: text, csv or json")
	exportDir := fs.String("export-dir", "", "also write each experiment's result as <id>.csv and <id>.json here")
	faults := fs.Float64("faults", 0, "inject faults at this rate in [0,1] (transient errors, latency spikes, crashes)")
	faultSeed := fs.Int64("fault-seed", 0, "fault-schedule seed (default: the base seed)")
	retries := fs.Int("retries", 0, "retries per failed operation (0 disables the resilient executor's retry loop)")
	journalDir := fs.String("journal", "", "write a crash-safe run journal to this directory (must not already hold one)")
	resumeDir := fs.String("resume", "", "resume from the run journal in this directory, replaying every session it holds")
	fs.BoolVar(&cfg.DetTiming, "det-timing", false, "replace measured durations with deterministic work-counter timings")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (experiments are selected with -exp)", fs.Arg(0))
	}
	// harness.Config reads 0 as "use the default", and so would it read a
	// negative size or timeout: refuse those rather than run at the default.
	for _, name := range []string{"twitter-docs", "nobench-docs", "reddit-docs", "sessions", "grid-sessions", "timeout"} {
		if v := fs.Lookup(name).Value.String(); strings.HasPrefix(v, "-") {
			return fmt.Errorf("-%s: negative value %s", name, v)
		}
	}
	if experiments, err = selectExperiments(*exp, experiments); err != nil {
		return err
	}

	if cfg.NoBenchSweep, err = parseInts(*sweep); err != nil {
		return fmt.Errorf("-nobench-sweep: %w", err)
	}
	if cfg.Threads, err = parseInts(*threads); err != nil {
		return fmt.Errorf("-threads: %w", err)
	}
	// The fault seed defaults to the base seed (123 when that is unset
	// too), so plain -faults runs are already reproducible.
	fseed := cmp.Or(*faultSeed, cfg.Seed, 123)
	if cfg.Faults, cfg.Retry, err = harness.FaultFlags(*faults, fseed, *retries); err != nil {
		return err
	}
	switch *format {
	case "text", "csv", "json":
	default:
		return fmt.Errorf("-format: unknown format %q (have text, csv, json)", *format)
	}
	if *journalDir != "" && *resumeDir != "" {
		return fmt.Errorf("-journal and -resume are mutually exclusive (resume appends to the existing journal)")
	}

	outputs, err := harness.OpenOutputs(*tracePath, *metricsPath)
	if err != nil {
		return err
	}
	defer outputs.Close()
	cfg.Obs = outputs.Scope
	if *exportDir != "" {
		if err := os.MkdirAll(*exportDir, 0o755); err != nil {
			return fmt.Errorf("-export-dir: %w", err)
		}
	}

	// The experiment layer is fully context-plumbed: one interrupt-aware
	// root context cancels every in-flight session, import and query
	// cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var job *runJob
	switch {
	case *journalDir != "":
		// Starting over beside an interrupted run would bury its
		// checkpoints: an existing journal is resumed, never reused.
		if _, err := runlog.Recover(*journalDir); !errors.Is(err, runlog.ErrNoJournal) {
			if err == nil {
				err = fmt.Errorf("%w in %s", runlog.ErrExists, *journalDir)
			}
			return fmt.Errorf("-journal: %w", err)
		}
		if job, err = openRunJob(ctx, *journalDir, jobqueue.Options{Obs: cfg.Obs}); err != nil {
			return fmt.Errorf("-journal: %w", err)
		}
	case *resumeDir != "":
		recovery, err := runlog.Recover(*resumeDir)
		if err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		reportRecovery(cfg.Obs, recovery)
		if job, err = openRunJob(ctx, *resumeDir, jobqueue.Options{Obs: cfg.Obs}); err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		fmt.Fprintf(out, "resuming: journal holds %d records, %d checkpoints\n",
			len(recovery.Records), job.snap.Checkpoints)
	}

	if job != nil {
		// A run that fails or is interrupted is released for -resume.
		defer func() {
			if ferr := job.finish(err); err == nil && ferr != nil {
				err = fmt.Errorf("journal: %w", ferr)
			}
		}()
	}

	env, err := harness.NewEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()
	if job != nil {
		env.SetCheckpoints(job.checkpoints())
	}

	for _, e := range experiments {
		fmt.Fprintf(out, "=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		res, err := env.RunExperiment(ctx, e)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		switch *format {
		case "csv":
			fmt.Fprint(out, res.CSV())
		case "json":
			data, err := res.JSON()
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			out.Write(data)
		default:
			fmt.Fprint(out, res.Text())
		}
		if *exportDir != "" {
			if err := exportResult(*exportDir, e.ID, res); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		fmt.Fprintf(out, "(%s took %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if err := env.CheckpointErr(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return outputs.Close()
}

// selectExperiments resolves -exp: all of them, or a comma-separated list
// of IDs, each at most once, in list order.
func selectExperiments(exp string, all []harness.Experiment) ([]harness.Experiment, error) {
	if exp == "all" {
		return all, nil
	}
	var sel []harness.Experiment
	seen := make(map[string]bool)
	for _, id := range strings.Split(exp, ",") {
		if seen[id] {
			return nil, fmt.Errorf("-exp: experiment %q listed twice", id)
		}
		seen[id] = true
		e, err := harness.ByID(id)
		if err != nil {
			return nil, err
		}
		sel = append(sel, e)
	}
	return sel, nil
}

// reportRecovery surfaces the journal replay through the obs scope.
func reportRecovery(scope obs.Scope, rec *runlog.Recovery) {
	e := obs.Event{Type: obs.EvJournalRecover, Records: int64(len(rec.Records))}
	if rec.Truncated {
		e.Err = rec.Reason.Error()
		scope.Counter(obs.MRunlogTruncations).Inc()
	}
	scope.Record(e)
	scope.Counter(obs.MRunlogRecovered).Add(int64(len(rec.Records)))
}

// exportResult writes one experiment's machine-readable forms atomically:
// a crash mid-run never leaves a torn or half-written export behind.
func exportResult(dir, id string, res *harness.Result) error {
	if err := fsatomic.WriteFile(filepath.Join(dir, id+".csv"), []byte(res.CSV()), 0o644); err != nil {
		return err
	}
	data, err := res.JSON()
	if err != nil {
		return err
	}
	return fsatomic.WriteFile(filepath.Join(dir, id+".json"), data, 0o644)
}

// parseInts parses a comma-separated list of counts, each at least 1.
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("count %d below 1", n)
		}
		out = append(out, n)
	}
	return out, nil
}
