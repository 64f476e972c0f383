// Package harness reproduces the paper's evaluation (§VI): it prepares the
// scaled-down synthetic datasets, generates sessions with the core
// generator, executes them on the four engines, and renders every figure
// and table of the paper as text. DESIGN.md carries the experiment index;
// EXPERIMENTS.md records paper-vs-measured values.
package harness

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/joda-explore/betze/internal/analyze"
	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/jodasim"
	"github.com/joda-explore/betze/internal/engine/jqsim"
	"github.com/joda-explore/betze/internal/engine/mongosim"
	"github.com/joda-explore/betze/internal/engine/pgsim"
	"github.com/joda-explore/betze/internal/faultsim"
	"github.com/joda-explore/betze/internal/fsatomic"
	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/obs"
)

// Config scales the reproduction. The zero value gives a laptop-sized run
// of every experiment; the paper's scales are noted per field.
type Config struct {
	// Dir is where dataset files and derived artifacts live; empty means
	// a temporary directory owned by the Env.
	Dir string
	// TwitterDocs scales the Twitter-like dataset (paper: 29.6 M docs /
	// 109 GB). Default 8000.
	TwitterDocs int
	// NoBenchDocs scales the default NoBench dataset (paper: 10 M for
	// Table II). Default 20000.
	NoBenchDocs int
	// NoBenchSweep are the document counts of the Fig. 10 scalability
	// sweep (paper: 10⁴…10⁸ at ~5.5 MB…30 GB). Default 1k/10k/50k/200k.
	NoBenchSweep []int
	// RedditDocs scales the Reddit dataset (paper: 53.9 M docs / 30 GB).
	// Default 20000.
	RedditDocs int
	// Sessions is the per-configuration session count of the
	// benchmark-centric experiments (paper: 30). Default 10.
	Sessions int
	// GridSessions is the per-cell session count of the Fig. 7 α/β grid
	// (paper: 20). Default 3.
	GridSessions int
	// Threads is the Fig. 9 sweep (paper: 4…60 in steps of 4). Default
	// 1, 2, 4, … up to runtime.NumCPU().
	Threads []int
	// Timeout bounds one session execution per engine (paper: 2 h in
	// Fig. 10, 8 h in Table III). Default 2 minutes.
	Timeout time.Duration
	// Seed is the base seed; experiment i uses Seed+i-style offsets.
	Seed int64
	// Obs is the observability scope experiments report into: session and
	// query trace events plus engine metrics. The zero scope discards
	// everything.
	Obs obs.Scope
	// Faults configures deterministic fault injection: when enabled,
	// every session engine is wrapped with a faultsim injector sharing
	// these options (off by default).
	Faults faultsim.Options
	// Retry configures the resilient executor. The zero value executes
	// every operation exactly once with no breaker.
	Retry RetryPolicy
	// DetTiming replaces measured wall-clock durations with deterministic
	// functions of each operation's work counters (documents imported,
	// scanned, returned). Two runs of the same configuration then render
	// byte-identical results — the property the kill-and-resume tests
	// assert, and a useful mode for diffing exports across machines.
	DetTiming bool
}

func (c Config) withDefaults() Config {
	if c.TwitterDocs <= 0 {
		c.TwitterDocs = 8000
	}
	if c.NoBenchDocs <= 0 {
		c.NoBenchDocs = 20000
	}
	if len(c.NoBenchSweep) == 0 {
		c.NoBenchSweep = []int{1000, 10000, 100000}
	}
	if c.RedditDocs <= 0 {
		c.RedditDocs = 20000
	}
	if c.Sessions <= 0 {
		c.Sessions = 10
	}
	if c.GridSessions <= 0 {
		c.GridSessions = 3
	}
	if len(c.Threads) == 0 {
		c.Threads = defaultThreadSweep(runtime.NumCPU())
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 123 // the paper's favourite seed
	}
	return c
}

// defaultThreadSweep builds the Fig. 9 thread counts for an ncpu-core
// machine: powers of two from 1 to at least 4 (so the table has shape even
// on small machines), always including ncpu itself — on a 6- or 12-core box
// the doubling skips the full-machine data point otherwise.
func defaultThreadSweep(ncpu int) []int {
	limit := max(4, ncpu)
	var threads []int
	seen := false
	for t := 1; t <= limit; t *= 2 {
		threads = append(threads, t)
		if t == ncpu {
			seen = true
		}
	}
	if !seen && ncpu >= 1 {
		threads = append(threads, ncpu)
		sort.Ints(threads)
	}
	return threads
}

// Env prepares and caches datasets, their analysis summaries, and the
// generation backend across experiments.
type Env struct {
	Cfg Config

	dir     string
	ownsDir bool
	sets    map[string]*datasetEnv

	// Checkpointing state (see checkpoint.go): the write-ahead run journal,
	// the replay of a prior interrupted run, and the work-key assignment for
	// the experiment currently executing under RunExperiment.
	journal       *RunJournal
	replay        *Replay
	keyMu         sync.Mutex
	curExperiment string
	occurrences   map[workIdentity]int
}

// datasetEnv is one materialised dataset.
type datasetEnv struct {
	name  string
	file  string
	docs  []jsonval.Value
	stats *jsonstats.Dataset
	// backend verifies generated selectivities (a cached jodasim).
	backend *jodasim.Engine
	// analysis records how long the analyzer ran (for the §VI-A
	// generation-cost report).
	analysis time.Duration
}

// NewEnv creates an experiment environment.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	env := &Env{Cfg: cfg, sets: make(map[string]*datasetEnv)}
	if cfg.Dir == "" {
		dir, err := os.MkdirTemp("", "betze-bench-*")
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		env.dir = dir
		env.ownsDir = true
	} else {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		env.dir = cfg.Dir
	}
	return env, nil
}

// Close removes owned artifacts.
func (e *Env) Close() error {
	for _, ds := range e.sets {
		if ds.backend != nil {
			ds.backend.Close()
		}
	}
	if e.ownsDir {
		return os.RemoveAll(e.dir)
	}
	return nil
}

// dataset materialises a dataset once and caches it under key.
func (e *Env) dataset(key string, src datasets.Source, n int, seed int64) (*datasetEnv, error) {
	if ds, ok := e.sets[key]; ok {
		return ds, nil
	}
	docs := src.Generate(n, seed)
	file := filepath.Join(e.dir, key+".json")
	if err := writeDocs(file, docs); err != nil {
		return nil, err
	}
	start := time.Now()
	stats := analyze.Values(src.Name, docs, analyze.Options{})
	analysis := time.Since(start)
	backend := jodasim.New(jodasim.Options{})
	backend.ImportValues(src.Name, docs)
	ds := &datasetEnv{
		name:     src.Name,
		file:     file,
		docs:     docs,
		stats:    stats,
		backend:  backend,
		analysis: analysis,
	}
	e.sets[key] = ds
	return ds, nil
}

func writeDocs(path string, docs []jsonval.Value) error {
	f, err := fsatomic.Create(path)
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	defer f.Close()
	var buf []byte
	for _, d := range docs {
		buf = jsonval.AppendJSON(buf[:0], d)
		buf = append(buf, '\n')
		if _, err := f.Write(buf); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
	}
	if err := f.Commit(); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	return nil
}

// Twitter returns the Twitter-like dataset environment.
func (e *Env) Twitter() (*datasetEnv, error) {
	return e.dataset("twitter", datasets.NewTwitter(), e.Cfg.TwitterDocs, e.Cfg.Seed)
}

// NoBench returns a NoBench dataset environment with n documents.
func (e *Env) NoBench(n int) (*datasetEnv, error) {
	return e.dataset(fmt.Sprintf("nobench_%d", n), datasets.NewNoBench(), n, e.Cfg.Seed)
}

// ReleaseNoBench drops a sweep-size NoBench dataset from the cache so large
// Fig. 10 sweeps do not accumulate resident document sets.
func (e *Env) ReleaseNoBench(n int) {
	key := fmt.Sprintf("nobench_%d", n)
	if ds, ok := e.sets[key]; ok {
		if ds.backend != nil {
			ds.backend.Close()
		}
		delete(e.sets, key)
	}
}

// Reddit returns the Reddit-like dataset environment. The U+0000 fraction
// is sized so even small runs contain the bodies that break PostgreSQL's
// import (Table III).
func (e *Env) Reddit() (*datasetEnv, error) {
	src := datasets.NewReddit(datasets.RedditOptions{NullByteFraction: 0.002})
	return e.dataset("reddit", src, e.Cfg.RedditDocs, e.Cfg.Seed)
}

// generate builds one session over the dataset using its verification
// backend.
func (ds *datasetEnv) generate(opts core.Options) (*core.Session, error) {
	if opts.Backend == nil {
		opts.Backend = ds.backend
	}
	return core.Generate(opts, ds.stats)
}

// engineSpec names an engine constructor so experiments can instantiate
// fresh, cache-cold engines per measurement.
type engineSpec struct {
	name string
	make func(dir string) (engine.Engine, error)
}

func jodaSpec(threads int) engineSpec {
	return engineSpec{name: "JODA", make: func(string) (engine.Engine, error) {
		return jodasim.New(jodasim.Options{Threads: threads}), nil
	}}
}

func jodaEvictSpec() engineSpec {
	return engineSpec{name: "JODA memory evicted", make: func(string) (engine.Engine, error) {
		return jodasim.New(jodasim.Options{Evict: true}), nil
	}}
}

func mongoSpec() engineSpec {
	return engineSpec{name: "MongoDB", make: func(string) (engine.Engine, error) {
		return mongosim.New(mongosim.Options{}), nil
	}}
}

func pgSpec() engineSpec {
	return engineSpec{name: "PostgreSQL", make: func(string) (engine.Engine, error) {
		return pgsim.New(pgsim.Options{}), nil
	}}
}

func jqSpec() engineSpec {
	return engineSpec{name: "jq", make: func(dir string) (engine.Engine, error) {
		// A per-engine temp subdirectory, not the shared dir: Close
		// removes it with every store file the session left.
		return jqsim.NewTempIn(dir)
	}}
}

// systemSpecs is the paper's engine line-up.
func systemSpecs(threads int) []engineSpec {
	return []engineSpec{jodaSpec(threads), mongoSpec(), pgSpec(), jqSpec()}
}

// SessionResult reports one session execution on one engine.
type SessionResult struct {
	Engine     string
	Import     engine.ImportStats
	QueryTimes []time.Duration
	// Total is the sum of query times (the paper's "w/o import").
	Total time.Duration
	// Wall includes the import (the paper's wall clock time).
	Wall time.Duration
	// TimedOut is set when the session hit the configured timeout; Total
	// then covers the completed queries only.
	TimedOut bool
	// ImportErr reports a failed import (PostgreSQL on Reddit).
	ImportErr error
	// Err reports the first execution failure other than the timeout;
	// with the resilient executor, later queries still ran (see Skipped).
	Err error
	// Retries counts re-attempted operations (imports and queries).
	Retries int
	// Skipped counts queries recorded as failed and passed over instead
	// of aborting the session.
	Skipped int
	// Recovered counts crash recoveries that replayed the stored-dataset
	// lineage mid-session.
	Recovered int
}

// runSession imports the dataset into a fresh engine and executes every
// query of the session through the resilient executor, honouring the
// configured timeout, fault injection, and retry policy. The configured
// observability scope receives session_start/session_end bracketing events
// (plus timeout/retry/skip/breaker/recovery events as they occur); the
// engines themselves emit the per-import and per-query events through the
// context.
func (e *Env) runSession(ctx context.Context, spec engineSpec, ds *datasetEnv, s *core.Session) SessionResult {
	return e.runSessionWith(ctx, spec, ds, s, e.Cfg.Faults, e.Cfg.Retry)
}

// runSessionWith is runSession with explicit fault and retry options, so
// the resilience experiment can sweep them against one Env.
func (e *Env) runSessionWith(ctx context.Context, spec engineSpec, ds *datasetEnv, s *core.Session, faults faultsim.Options, retry RetryPolicy) SessionResult {
	// Under checkpointing every session gets a deterministic work key; a
	// resumed run returns the journaled result of a completed key instead
	// of re-executing, and journals every key it does execute — unless the
	// caller's context ended, which makes the result an artifact of the
	// interruption. A session that hit only its own Cfg.Timeout is a
	// genuine result and is journaled.
	key, tracked := e.nextKey(spec.name, ds.name, s.Seed)
	if tracked {
		if prev, ok := e.replay.SessionResult(key); ok {
			e.Cfg.Obs.Record(obs.Event{
				Type: obs.EvResumeSkip, Kind: obs.KindSession, Engine: key.Engine,
				Dataset: key.Dataset, Session: key.String(),
			})
			e.Cfg.Obs.Counter(obs.MHarnessResumeSkips).Inc()
			return prev
		}
	}
	res := e.execSession(ctx, spec, ds, s, faults, retry)
	if tracked && ctx.Err() == nil {
		e.journal.Session(key, res)
	}
	return res
}

// execSession is the execution body of runSessionWith, below the
// checkpoint/replay layer.
func (e *Env) execSession(ctx context.Context, spec engineSpec, ds *datasetEnv, s *core.Session, faults faultsim.Options, retry RetryPolicy) SessionResult {
	res := SessionResult{Engine: spec.name}
	eng, err := spec.make(e.dir)
	if err != nil {
		res.Err = err
		return res
	}
	if faults.Enabled() {
		eng = faultsim.Wrap(eng, faults)
	}
	defer eng.Close()
	ctx, cancel := context.WithTimeout(ctx, e.Cfg.Timeout)
	defer cancel()
	ctx = obs.With(ctx, e.Cfg.Obs)
	sc := e.Cfg.Obs
	// Bracketing events carry eng.Name() — the same label the engine's own
	// import/query events use — so consumers can join them; spec.name is
	// only a display name ("JODA memory evicted" vs "JODA (evicted)").
	engName := eng.Name()
	label := fmt.Sprintf("%s/seed%d", ds.name, s.Seed)
	sc.Record(obs.Event{
		Type: obs.EvSessionStart, Engine: engName, Dataset: ds.name,
		Session: label, Queries: len(s.Queries),
	})
	defer func() {
		sc.Record(obs.Event{
			Type: obs.EvSessionEnd, Engine: engName, Dataset: ds.name,
			Session: label, Duration: res.Total, TimedOut: res.TimedOut,
		})
		sc.Observe(obs.MHarnessSession, res.Total)
		sc.Counter(obs.MHarnessSessions).Inc()
	}()

	imp, retries, err := RunImport(ctx, eng, ds.name, ds.file, retry)
	res.Retries += retries
	if err != nil {
		if ctx.Err() != nil {
			res.TimedOut = true
			sc.Record(obs.Event{
				Type: obs.EvTimeout, Engine: engName, Dataset: ds.name,
				Session: label, Duration: e.Cfg.Timeout,
			})
			sc.Counter(obs.MHarnessTimeouts).Inc()
		}
		res.ImportErr = err
		return res
	}
	if e.Cfg.DetTiming {
		imp.Duration = DetImportDuration(imp)
	}
	res.Import = imp
	outcomes, rs := RunQueries(ctx, eng, s.Queries, retry, io.Discard, label)
	for _, o := range outcomes {
		if o.Err == nil {
			d := o.Stats.Duration
			if e.Cfg.DetTiming {
				d = DetQueryDuration(o.Stats)
			}
			res.QueryTimes = append(res.QueryTimes, d)
			res.Total += d
		}
	}
	res.TimedOut = rs.TimedOut
	res.Err = rs.FirstErr // already labelled "<query> on <engine>"
	res.Retries += rs.Retries
	res.Skipped = rs.Skipped
	res.Recovered = rs.Recovered
	res.Wall = res.Total + imp.Duration
	return res
}
