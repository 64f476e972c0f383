// Package loadgen is the open-loop virtual-user load engine: it drives a
// Service (typically one of the engine sims behind the compiled-predicate
// shard scan path) with session arrivals from a seeded stochastic process,
// think-time drawn from the paper's explorer model, and a bounded worker
// pool, and reports arrival-anchored latency percentiles against an SLO.
//
// Open loop means the arrival process never waits for the system: a
// session's k-th query becomes due at its scheduled instant whether or not
// the pool has caught up, and a late completion counts its full
// due-to-completion time against the SLO (the coordinated-omission-free
// measurement interactive-latency benchmarks like IDEBench insist on).
// Backlog is explicit — queries due but not yet started are counted, and
// beyond QueueCap they are shed rather than silently stretching the run.
//
// Simulate (sim.go) advances virtual time over a min-heap of events and a
// W-server FIFO queue. It is fully deterministic under a seed — the same
// Config yields a byte-identical Report — and costs no wall time per
// simulated second, so it scales to millions of virtual users. Service
// supplies each execution's duration (measured, modelled, or deterministic).
package loadgen

import (
	"time"

	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/obs"
)

// User identifies one virtual user's current query to a Service.
type User struct {
	// ID is the 1-based arrival ordinal of the user's session.
	ID int64
	// Preset is the explorer preset the user was drawn as.
	Preset core.Preset
	// Pool is a stable workload-slot index in [0, PoolSize): services
	// backed by pre-generated sessions pick their session with it.
	Pool int
	// Query is the 0-based query ordinal within the session.
	Query int
}

// Service executes one query for a virtual user and reports its service
// time. Simulate advances the virtual clock by the returned duration. A
// failed execution still consumes its returned duration (the engine was
// busy failing).
type Service func(u User) (time.Duration, error)

// SLO is the verdict contract of a run. Zero bounds are unchecked; a run
// passes when every set percentile bound holds and nothing was shed and no
// execution failed.
type SLO struct {
	// P50, P99, P999 bound the arrival-anchored latency percentiles.
	P50, P99, P999 time.Duration
	// Late is the per-query latency budget: completions over it are
	// counted in Report.Late (0 counts nothing). Late queries fail the
	// run only through the percentile bounds — open-loop semantics is
	// that they are measured, not dropped.
	Late time.Duration
}

// Config parameterises one load-generation run.
type Config struct {
	// Seed drives every stochastic choice: arrivals, preset draws, think
	// times. Same seed, same Config ⇒ same virtual-time Report.
	Seed int64
	// Sessions is the total number of session arrivals (the open-loop
	// population; millions are fine in virtual time).
	Sessions int
	// Rate is the mean session arrival rate per second.
	Rate float64
	// Arrivals selects and shapes the arrival process (Poisson default).
	Arrivals ArrivalSpec
	// Workers bounds the pool executing queries: the virtual servers of
	// Simulate. Default 4.
	Workers int
	// QueueCap bounds the backlog of due-but-unstarted queries; beyond
	// it queries are shed (counted, not executed). Default 4096.
	QueueCap int
	// Mix is the preset population users are drawn from (uniformly, per
	// user seed). Default core.Presets().
	Mix []core.Preset
	// PoolSize is the number of workload slots users cycle through (see
	// User.Pool). Default 1.
	PoolSize int
	// ThinkScale multiplies the preset think times — the harness
	// experiment compresses seconds of thinking into milliseconds.
	// Default 1.
	ThinkScale float64
	// SLO is the verdict contract.
	SLO SLO
	// Service executes the queries. Required.
	Service Service
	// Obs receives load.* counters, gauges, histograms and the run
	// summary trace event. Optional.
	Obs obs.Scope
}

func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	if len(cfg.Mix) == 0 {
		cfg.Mix = core.Presets()
	}
	if cfg.PoolSize <= 0 {
		cfg.PoolSize = 1
	}
	if cfg.ThinkScale <= 0 {
		cfg.ThinkScale = 1
	}
	return cfg
}

// thinkMean is the mean think time of one explorer preset. The paper's
// model (§III) gives each preset a temperament, not a clock; the mapping
// here makes the decisive expert (α=0.2, 5 queries) pause a quarter as long
// as the wandering novice (α=0.5, 20 queries), which is the shape
// interactive-workload studies report. Think times are drawn Exp(mean) per
// query from the user's seed.
func thinkMean(p core.Preset) time.Duration {
	switch p.Name {
	case core.Novice.Name:
		return 8 * time.Second
	case core.Intermediate.Name:
		return 4 * time.Second
	case core.Expert.Name:
		return 2 * time.Second
	}
	return 4 * time.Second
}

// Report is the outcome of one run.
type Report struct {
	// Rate echoes the configured mean arrival rate (sessions/s).
	Rate float64 `json:"rate"`
	// Arrivals names the arrival process (poisson, bursty).
	Arrivals string `json:"arrivals"`
	// Sessions/Queries count arrivals and issued queries (shed included).
	Sessions int64 `json:"sessions"`
	Queries  int64 `json:"queries"`
	// Completed counts successful executions, Errors failed ones, Shed
	// queries dropped at the backlog bound, Late completions over
	// SLO.Late.
	Completed int64 `json:"completed"`
	Errors    int64 `json:"errors"`
	Shed      int64 `json:"shed"`
	Late      int64 `json:"late"`
	// MaxBacklog is the high-water mark of due-but-unstarted queries.
	MaxBacklog int `json:"max_backlog"`
	// Horizon is the virtual-time span from the first arrival to the last
	// completion.
	Horizon time.Duration `json:"horizon_ns"`
	// Latency is the arrival-anchored (due → completion) distribution;
	// QueueWait the due → start share of it.
	Latency   obs.HistogramSnapshot `json:"latency"`
	QueueWait obs.HistogramSnapshot `json:"queue_wait"`
	// Pass is the SLO verdict.
	Pass bool `json:"pass"`
}

// evaluate fills the verdict from the SLO: percentile bounds, no sheds, no
// errors.
func (r *Report) evaluate(slo SLO) {
	r.Pass = r.Shed == 0 && r.Errors == 0 &&
		(slo.P50 == 0 || r.Latency.P50 <= slo.P50) &&
		(slo.P99 == 0 || r.Latency.P99 <= slo.P99) &&
		(slo.P999 == 0 || r.Latency.P999 <= slo.P999)
}

// publish mirrors the run's totals into the obs scope and closes with one
// load_run trace event.
func (r *Report) publish(cfg Config, lat, qwait *obs.Histogram) {
	sc := cfg.Obs
	if !sc.Enabled() {
		return
	}
	sc.Counter(obs.MLoadSessions).Add(r.Sessions)
	sc.Counter(obs.MLoadQueries).Add(r.Queries)
	sc.Counter(obs.MLoadCompleted).Add(r.Completed)
	sc.Counter(obs.MLoadErrors).Add(r.Errors)
	sc.Counter(obs.MLoadShed).Add(r.Shed)
	sc.Counter(obs.MLoadLate).Add(r.Late)
	sc.Gauge(obs.MLoadBacklog).Set(0)
	if sc.Metrics != nil {
		sc.Metrics.Histogram(obs.MLoadLatency).Merge(lat)
		sc.Metrics.Histogram(obs.MLoadQueueWait).Merge(qwait)
	}
	sc.Record(obs.Event{
		Type: obs.EvLoadRun, Kind: r.Arrivals,
		Queries: int(r.Queries), Workers: cfg.Workers,
		Duration: r.Horizon,
	})
}
