// Command betze-bench regenerates every table and figure of the paper's
// evaluation (§VI) at a configurable scale. Run it without flags for a
// laptop-sized pass over all experiments, or select one with -exp.
//
//	betze-bench -exp fig10 -nobench-sweep 1000,10000,100000,1000000
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
// Robustness: -faults injects deterministic transient errors, latency
// spikes and engine crashes at the given rate (seeded by -fault-seed), and
// -retries enables the resilient executor — retry with backoff, circuit
// breaking and crash recovery.
//
//	betze-bench -exp resilience -faults 0.3 -fault-seed 7 -retries 3
//
// Durability: -journal writes a crash-safe run journal (a write-ahead log
// checkpointing every completed session and experiment), and -resume
// replays such a journal after a crash or kill, skipping completed work and
// re-executing only the tail. With -det-timing, measured durations are
// replaced by deterministic functions of each operation's work counters, so
// an interrupted-and-resumed run exports byte-identical results.
//
//	betze-bench -exp all -journal run.journal -export-dir results/
//	betze-bench -exp all -resume run.journal -export-dir results/
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/joda-explore/betze/internal/faultsim"
	"github.com/joda-explore/betze/internal/fsatomic"
	"github.com/joda-explore/betze/internal/harness"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/runlog"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "betze-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("betze-bench", flag.ContinueOnError)
	var cfg harness.Config
	experiments := harness.Experiments()
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.ID
	}
	exp := fs.String("exp", "all", "experiment id ("+strings.Join(ids, ", ")+") or 'all'")
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
	resumeDir := fs.String("resume", "", "resume from the run journal in this directory, skipping completed work")
	fs.BoolVar(&cfg.DetTiming, "det-timing", false, "replace measured durations with deterministic work-counter timings")
	crashfuzz := fs.Bool("crashfuzz", false, "run the bounded crash-point consistency harness over the durability stack and exit")
	crashfuzzDeep := fs.Bool("crashfuzz-deep", false, "exhaustive crash-point enumeration (slow); implies -crashfuzz")
	errfsSeed := fs.Int64("errfs-seed", 1, "seed for the storage-fault schedule and torn-crash choices (crashfuzz)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (experiments are selected with -exp)", fs.Arg(0))
	}
	if *crashfuzz || *crashfuzzDeep {
		return runCrashFuzz(out, *errfsSeed, *crashfuzzDeep)
	}

	var err error
	if cfg.NoBenchSweep, err = parseInts(*sweep); err != nil {
		return fmt.Errorf("-nobench-sweep: %w", err)
	}
	if cfg.Threads, err = parseInts(*threads); err != nil {
		return fmt.Errorf("-threads: %w", err)
	}
	if cfg.Faults, cfg.Retry, err = resilienceConfig(*faults, *faultSeed, cfg.Seed, *retries); err != nil {
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

	var rec *obs.Recorder
	if *tracePath != "" {
		// The trace is an append stream whose partial content is the point
		// of a crash investigation, so it is not published atomically.
		//lint:ignore atomicwrite trace is an append stream, partial content is wanted after a crash
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		defer f.Close()
		rec = obs.NewRecorder(f)
		cfg.Obs.Trace = rec
	}
	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.NewRegistry()
		cfg.Obs.Metrics = reg
	}
	if *exportDir != "" {
		if err := os.MkdirAll(*exportDir, 0o755); err != nil {
			return fmt.Errorf("-export-dir: %w", err)
		}
	}

	fingerprint, err := configFingerprint(*exp, cfg)
	if err != nil {
		return err
	}
	var journal *harness.RunJournal
	var replay *harness.Replay
	switch {
	case *journalDir != "":
		w, err := runlog.Create(*journalDir, runlog.Options{})
		if err != nil {
			return fmt.Errorf("-journal: %w", err)
		}
		journal = harness.NewRunJournal(w, cfg.Obs)
	case *resumeDir != "":
		recovery, err := runlog.Recover(*resumeDir)
		if err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		reportRecovery(cfg.Obs, recovery)
		replay, err = harness.NewReplay(recovery)
		if err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		if fp := replay.Fingerprint(); fp != "" && fp != fingerprint {
			return fmt.Errorf("-resume: %w (journal: %s, flags: %s)", harness.ErrJournalMismatch, fp, fingerprint)
		}
		w, err := runlog.Open(*resumeDir, runlog.Options{})
		if err != nil {
			return fmt.Errorf("-resume: %w", err)
		}
		journal = harness.NewRunJournal(w, cfg.Obs)
		fmt.Fprintf(out, "resuming: journal holds %d records, %d completed sessions\n",
			replay.Records(), replay.Sessions())
	}
	if journal != nil {
		defer journal.Close()
		journal.RunStart(fingerprint)
	}

	env, err := harness.NewEnv(cfg)
	if err != nil {
		return err
	}
	defer env.Close()
	env.SetJournal(journal, replay)

	// The experiment layer is fully context-plumbed: one interrupt-aware
	// root context cancels every in-flight session, import and query
	// cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *exp != "all" {
		e, err := harness.ByID(*exp)
		if err != nil {
			return err
		}
		experiments = []harness.Experiment{e}
	}
	for _, e := range experiments {
		fmt.Fprintf(out, "=== %s: %s ===\n", e.ID, e.Title)
		start := time.Now()
		res, resumed, err := env.RunExperiment(ctx, e)
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
		if resumed {
			fmt.Fprintf(out, "(%s replayed from journal)\n\n", e.ID)
		} else {
			fmt.Fprintf(out, "(%s took %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if journal != nil {
		journal.RunEnd()
		if err := journal.Close(); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	if rec != nil {
		if err := rec.Err(); err != nil {
			return err
		}
	}
	if reg != nil {
		f, err := fsatomic.Create(*metricsPath)
		if err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
		defer f.Close()
		if err := reg.WriteJSON(f); err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
		if err := f.Commit(); err != nil {
			return fmt.Errorf("-metrics-out: %w", err)
		}
	}
	return nil
}

// configFingerprint canonically encodes the work-shaping configuration: the
// fields that determine which work units a run enumerates and what they
// compute. Artifact destinations (-dir, -trace, -export-dir, …) are
// deliberately excluded — a resume may write its outputs elsewhere.
func configFingerprint(exp string, cfg harness.Config) (string, error) {
	fp := struct {
		Exp       string              `json:"exp"`
		Twitter   int                 `json:"twitter"`
		NoBench   int                 `json:"nobench"`
		Sweep     []int               `json:"sweep,omitempty"`
		Reddit    int                 `json:"reddit"`
		Sessions  int                 `json:"sessions"`
		Grid      int                 `json:"grid"`
		Threads   []int               `json:"threads,omitempty"`
		Timeout   time.Duration       `json:"timeout"`
		Seed      int64               `json:"seed"`
		Faults    faultsim.Options    `json:"faults"`
		Retry     harness.RetryPolicy `json:"retry"`
		DetTiming bool                `json:"det_timing"`
	}{
		Exp: exp, Twitter: cfg.TwitterDocs, NoBench: cfg.NoBenchDocs,
		Sweep: cfg.NoBenchSweep, Reddit: cfg.RedditDocs, Sessions: cfg.Sessions,
		Grid: cfg.GridSessions, Threads: cfg.Threads, Timeout: cfg.Timeout,
		Seed: cfg.Seed, Faults: cfg.Faults, Retry: cfg.Retry, DetTiming: cfg.DetTiming,
	}
	data, err := json.Marshal(fp)
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	return string(data), nil
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

// resilienceConfig maps the -faults/-fault-seed/-retries flags onto the
// harness options. The fault seed defaults to the base seed (123 when that
// is unset too), so plain -faults runs are already reproducible.
func resilienceConfig(rate float64, faultSeed, baseSeed int64, retries int) (faultsim.Options, harness.RetryPolicy, error) {
	if rate < 0 || rate > 1 {
		return faultsim.Options{}, harness.RetryPolicy{}, fmt.Errorf("-faults: rate %v outside [0,1]", rate)
	}
	if retries < 0 {
		return faultsim.Options{}, harness.RetryPolicy{}, fmt.Errorf("-retries: negative count %d", retries)
	}
	if faultSeed == 0 {
		faultSeed = baseSeed
	}
	if faultSeed == 0 {
		faultSeed = 123
	}
	faults := faultsim.Uniform(rate, faultSeed)
	var pol harness.RetryPolicy
	if retries > 0 {
		pol = harness.DefaultRetryPolicy()
		pol.MaxAttempts = retries + 1
		pol.Seed = faultSeed
	}
	return faults, pol, nil
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
		out = append(out, n)
	}
	return out, nil
}
