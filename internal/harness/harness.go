// Package harness reproduces the paper's evaluation (§VI): it prepares the
// scaled-down synthetic datasets, generates sessions with the core
// generator, executes them on the four engines, and renders every figure
// and table of the paper as text. DESIGN.md carries the experiment index;
// EXPERIMENTS.md records paper-vs-measured values.
package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/joda-explore/betze/internal/analyze"
	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/engine/jodasim"
	"github.com/joda-explore/betze/internal/faultsim"
	"github.com/joda-explore/betze/internal/jobqueue"
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
// generation backend across experiments. It is used by one goroutine at a
// time.
type Env struct {
	Cfg Config

	dir     string
	ownsDir bool
	sets    map[string]*datasetEnv

	// Checkpointing state (see checkpoint.go): the running job's
	// checkpoints, the first that could not be saved, and the experiment
	// currently executing under RunExperiment with what stops it.
	cp            *jobqueue.Checkpoints
	cpErr         error
	curExperiment string
	abort         context.CancelCauseFunc
}

// datasetEnv is one materialised dataset.
type datasetEnv struct {
	// key is Env.datasetKey, the dataset's identity in unit keys.
	key   string
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

// datasetKey names n documents of a dataset family generated from the base
// seed: the dataset's cache key, file name and identity in unit keys.
func (e *Env) datasetKey(family string, n int) string {
	return fmt.Sprintf("%s_%d_seed%d", family, n, e.Cfg.Seed)
}

// dataset materialises n documents of src once and caches them under the
// family's key.
func (e *Env) dataset(family string, src datasets.Source, n int) (*datasetEnv, error) {
	key := e.datasetKey(family, n)
	if ds, ok := e.sets[key]; ok {
		return ds, nil
	}
	docs := src.Generate(n, e.Cfg.Seed)
	file := filepath.Join(e.dir, key+".json")
	if err := datasets.WriteDocs(file, docs); err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	start := time.Now()
	stats := analyze.Values(src.Name, docs, analyze.Options{})
	analysis := time.Since(start)
	backend := jodasim.New(jodasim.Options{})
	backend.ImportValues(src.Name, docs)
	ds := &datasetEnv{
		key:      key,
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

// Twitter returns the Twitter-like dataset environment.
func (e *Env) Twitter() (*datasetEnv, error) {
	return e.dataset("twitter", datasets.NewTwitter(), e.Cfg.TwitterDocs)
}

// NoBench returns a NoBench dataset environment with n documents.
func (e *Env) NoBench(n int) (*datasetEnv, error) {
	return e.dataset("nobench", datasets.NewNoBench(), n)
}

// ReleaseNoBench drops a sweep-size NoBench dataset from the cache so large
// Fig. 10 sweeps do not accumulate resident document sets.
func (e *Env) ReleaseNoBench(n int) {
	key := e.datasetKey("nobench", n)
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
	return e.dataset("reddit", src, e.Cfg.RedditDocs)
}

// generate builds one session over the dataset using its verification
// backend.
func (ds *datasetEnv) generate(opts core.Options) (*core.Session, error) {
	if opts.Backend == nil {
		opts.Backend = ds.backend
	}
	return core.Generate(opts, ds.stats)
}

// paperSystems is the paper's engine line-up, as Systems keys.
var paperSystems = []string{"joda", "mongodb", "postgres", "jq"}

// unit is session s over ds on sys, with threads JODA workers and the
// configured faults, retry policy, timeout and timing.
func (e *Env) unit(sys System, threads int, ds *datasetEnv, s *core.Session) Unit {
	return Unit{
		System: sys, Threads: threads, Imports: []Import{{ds.name, ds.file}}, DataKey: ds.key,
		Queries: s.Queries, Seed: s.Seed, Faults: e.Cfg.Faults, Retry: e.Cfg.Retry,
		Timeout: e.Cfg.Timeout, DetTiming: e.Cfg.DetTiming, Dir: e.dir,
	}
}
