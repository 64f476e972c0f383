package harness

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/jodasim"
	"github.com/joda-explore/betze/internal/engine/mongosim"
	"github.com/joda-explore/betze/internal/engine/pgsim"
	"github.com/joda-explore/betze/internal/faultsim"
	"github.com/joda-explore/betze/internal/loadgen"
)

// loadgenPoolSize is the number of pre-generated sessions virtual users
// cycle through (see loadgen.User.Pool).
const loadgenPoolSize = 6

// loadgenThinkScale compresses the explorer think times (seconds) for the
// verdict rows: queueing behaviour depends on the ratio of offered query
// rate to service capacity, not on absolute think durations, and compressed
// sessions reach steady state with thousands instead of millions of users.
const loadgenThinkScale = 0.01

// loadgenSessionSpan is the mean compressed session duration: E[queries ×
// think] over the uniform preset mix (novice 20×8s, intermediate 10×4s,
// expert 5×2s ⇒ 70s), scaled by loadgenThinkScale.
const loadgenSessionSpan = 70 * loadgenThinkScale

// loadgenSessionCount sizes one verdict row's population: enough arrivals to
// hold the target rate for several mean session lifetimes (so the row
// measures steady state, not the ramp), bounded on both ends.
func loadgenSessionCount(rate float64) int {
	n := int(3 * rate * loadgenSessionSpan)
	if n < 2000 {
		return 2000
	}
	if n > 100_000 {
		return 100_000
	}
	return n
}

// loadgenSLO is the verdict contract every row is judged against.
func loadgenSLO() loadgen.SLO {
	return loadgen.SLO{
		P50:  25 * time.Millisecond,
		P99:  250 * time.Millisecond,
		P999: time.Second,
		Late: 500 * time.Millisecond,
	}
}

// loadService is the measured per-query service-time table of one engine: a
// loadgen.Service that answers from one up-front, single-threaded execution
// pass instead of re-executing queries inside the simulation. The engines
// are deterministic, so one measurement per (pool session, query) is the
// whole story, and measuring in session order keeps Store/derived-dataset
// lineage intact.
type loadService struct {
	durs [][]time.Duration
	errs [][]error
}

func (s *loadService) service(u loadgen.User) (time.Duration, error) {
	qs := s.durs[u.Pool]
	i := u.Query % len(qs)
	return qs[i], s.errs[u.Pool][i]
}

// kneeRate is the saturation knee of the measured service table: the session
// arrival rate at which the steady-state query load (rate × mean queries per
// session) meets the worker pool's capacity (workers / mean service time).
// Probing around it makes the verdict table show the pass → fail transition
// instead of twelve identical rows.
func (s *loadService) kneeRate(workers int) float64 {
	var total time.Duration
	queries := 0
	for _, qs := range s.durs {
		for _, d := range qs {
			total += d
		}
		queries += len(qs)
	}
	if total <= 0 || queries == 0 {
		return 1
	}
	meanService := total.Seconds() / float64(queries)
	meanQueries := float64(queries) / float64(len(s.durs))
	return float64(workers) / (meanService * meanQueries)
}

// measureLoadService executes every pool query once on exec. In DetTiming
// mode durations come from the work counters (DetQueryDuration) plus one
// deterministic opts.Latency per latency fault the injector recorded for the
// query — the injector's real sleep happens outside the inner engine's
// measured span, so the schedule is the only honest account of it.
func measureLoadService(ctx context.Context, e *Env, exec engine.Engine, pool []*core.Session) (*loadService, error) {
	var injector *faultsim.Engine
	if fe, ok := exec.(*faultsim.Engine); ok {
		injector = fe
	}
	latencyFaults := func() int {
		if injector == nil {
			return 0
		}
		n := 0
		for _, f := range injector.Schedule() {
			if f.Kind == faultsim.KindLatency {
				n++
			}
		}
		return n
	}
	svc := &loadService{
		durs: make([][]time.Duration, len(pool)),
		errs: make([][]error, len(pool)),
	}
	for pi, sess := range pool {
		svc.durs[pi] = make([]time.Duration, len(sess.Queries))
		svc.errs[pi] = make([]error, len(sess.Queries))
		for qi, q := range sess.Queries {
			before := latencyFaults()
			stats, err := exec.Execute(ctx, q, io.Discard)
			if err != nil && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			d := stats.Duration
			if e.Cfg.DetTiming {
				d = DetQueryDuration(stats)
				if spikes := latencyFaults() - before; spikes > 0 {
					d += time.Duration(spikes) * e.Cfg.Faults.Latency
				}
			}
			svc.durs[pi][qi] = d
			svc.errs[pi][qi] = err
		}
	}
	return svc, nil
}

// LoadGen evaluates the engine sims under open-loop virtual-user load: for
// each engine, session arrivals at increasing rates (plus one bursty MMPP
// row at the middle rate) drive the measured per-query service times through
// the deterministic virtual-time scheduler, and each row reports its latency
// percentiles and SLO verdict. Open loop means arrivals never slow down for
// a saturated engine — late completions count in full, and queries beyond
// the queue bound are shed. With -det-timing the whole table is
// byte-identical across runs (TestLoadGenDeterministic pins that); without
// it, service times are measured and rows vary with the machine.
func LoadGen(ctx context.Context, e *Env) (*Result, error) {
	ds, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	presets := core.Presets()
	pool := make([]*core.Session, loadgenPoolSize)
	for i := range pool {
		sess, err := ds.generate(core.Options{
			Preset: presets[i%len(presets)],
			Seed:   e.Cfg.Seed + int64(300+i),
		})
		if err != nil {
			return nil, fmt.Errorf("loadgen: %w", err)
		}
		pool[i] = sess
	}

	engines := []struct {
		name string
		mk   func() engine.Engine
	}{
		{"joda-sim", func() engine.Engine {
			eng := jodasim.New(jodasim.Options{})
			eng.ImportValues(ds.name, ds.docs)
			return eng
		}},
		{"mongodb-sim", func() engine.Engine {
			eng := mongosim.New(mongosim.Options{})
			eng.ImportValues(ds.name, ds.docs)
			return eng
		}},
		{"postgres-sim", func() engine.Engine {
			eng := pgsim.New(pgsim.Options{})
			if err := eng.ImportValues(ds.name, ds.docs); err != nil {
				panic(fmt.Sprintf("loadgen: pgsim import: %v", err))
			}
			return eng
		}},
	}
	header := []string{"engine", "arrivals", "rate/s", "sessions", "queries", "p50", "p99", "p999", "late", "shed", "max backlog", "verdict"}
	var rows [][]string
	for _, ec := range engines {
		eng := ec.mk()
		var exec engine.Engine = eng
		if e.Cfg.Faults.Enabled() {
			exec = faultsim.Wrap(eng, e.Cfg.Faults)
		}
		svc, err := measureLoadService(ctx, e, exec, pool)
		if err != nil {
			return nil, fmt.Errorf("loadgen: measuring %s: %w", ec.name, err)
		}
		// Probe around the engine's own saturation knee so each engine's
		// block walks from comfortably-passing to clearly-failing.
		knee := svc.kneeRate(4)
		rates := []float64{0.5 * knee, knee, 2 * knee}
		row := func(spec loadgen.ArrivalSpec, rate float64) error {
			rep, err := loadgen.Simulate(ctx, loadgen.Config{
				Seed:       e.Cfg.Seed,
				Sessions:   loadgenSessionCount(rate),
				Rate:       rate,
				Arrivals:   spec,
				Workers:    4,
				PoolSize:   loadgenPoolSize,
				ThinkScale: loadgenThinkScale,
				SLO:        loadgenSLO(),
				Service:    svc.service,
				Obs:        e.Cfg.Obs,
			})
			if err != nil {
				return fmt.Errorf("loadgen: %s at %g/s: %w", ec.name, rate, err)
			}
			verdict := "pass"
			if !rep.Pass {
				verdict = "FAIL"
			}
			rows = append(rows, []string{
				ec.name, rep.Arrivals,
				fmt.Sprintf("%.3g", rate),
				fmt.Sprintf("%d", rep.Sessions),
				fmt.Sprintf("%d", rep.Queries),
				FormatDuration(rep.Latency.P50),
				FormatDuration(rep.Latency.P99),
				FormatDuration(rep.Latency.P999),
				fmt.Sprintf("%d", rep.Late),
				fmt.Sprintf("%d", rep.Shed),
				fmt.Sprintf("%d", rep.MaxBacklog),
				verdict,
			})
			return nil
		}
		for _, rate := range rates {
			if err := row(loadgen.ArrivalSpec{Kind: loadgen.Poisson}, rate); err != nil {
				return nil, err
			}
		}
		// The bursty row compresses the MMPP dwell times by the same factor
		// as the think times, so the run spans many burst/calm cycles
		// instead of landing inside a single state.
		bursty := loadgen.ArrivalSpec{
			Kind:       loadgen.Bursty,
			BurstDwell: time.Duration(2 * float64(time.Second) * loadgenThinkScale),
			CalmDwell:  time.Duration(8 * float64(time.Second) * loadgenThinkScale),
		}
		if err := row(bursty, rates[1]); err != nil {
			return nil, err
		}
		eng.Close()
	}
	res := tableResult("loadgen", header, rows)
	res.note(fmt.Sprintf("(open-loop arrivals over a %d-session query pool, 4 workers, think times x%g; SLO p50<=25ms p99<=250ms p999<=1s, late>500ms)",
		loadgenPoolSize, float64(loadgenThinkScale)))
	res.note("(service times measured once per pool query; -det-timing makes the table byte-identical across runs)")
	return res, nil
}
