package harness

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/jodasim"
	"github.com/joda-explore/betze/internal/faultsim"
	"github.com/joda-explore/betze/internal/obs"
)

// MultiUser evaluates concurrent exploration sessions against a single
// shared JODA instance — the multi-user evaluation §III of the paper
// sketches ("we could generate multiple sessions and execute them
// simultaneously. Using different configurations for different sessions is
// also possible."). For each concurrency level it runs a mixed population
// (novice/intermediate/expert round-robin) and reports wall time, total and
// completed queries and throughput. Each user runs its queries through
// RunQueries with Config.Retry, so a failed query is retried, then skipped
// and noted — it does not abort the user or the experiment — and every user
// closes its session trace with EvSessionEnd. With Config.Faults enabled,
// the shared engine is wrapped with the deterministic fault injector.
func MultiUser(ctx context.Context, e *Env) (*Result, error) {
	ds, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	levels := []int{1, 2, 4, 8}
	presets := core.Presets()

	var rows [][]string
	var notes []string
	for _, users := range levels {
		sessions := make([]*core.Session, users)
		for u := 0; u < users; u++ {
			sess, err := ds.generate(core.Options{
				Preset: presets[u%len(presets)],
				Seed:   e.Cfg.Seed + int64(100+u),
			})
			if err != nil {
				return nil, fmt.Errorf("multiuser: %w", err)
			}
			sessions[u] = sess
		}
		eng := jodasim.New(jodasim.Options{})
		eng.ImportValues(ds.name, ds.docs)
		var exec engine.Engine = eng
		if e.Cfg.Faults.Enabled() {
			exec = faultsim.Wrap(eng, e.Cfg.Faults)
		}

		ctx, cancel := context.WithTimeout(ctx, e.Cfg.Timeout)
		ctx = obs.With(ctx, e.Cfg.Obs)
		start := time.Now()
		var wg sync.WaitGroup
		results := make([]RunStats, users)
		queries := 0
		for u, sess := range sessions {
			queries += len(sess.Queries)
			wg.Add(1)
			go func(u int, sess *core.Session) {
				defer wg.Done()
				label := fmt.Sprintf("%s/user%d", ds.name, u)
				e.Cfg.Obs.Record(obs.Event{
					Type: obs.EvSessionStart, Engine: exec.Name(), Dataset: ds.name,
					Session: label, Queries: len(sess.Queries),
				})
				outcomes, rs := RunQueries(ctx, exec, sess.Queries, e.Cfg.Retry, io.Discard, label)
				var total time.Duration
				for _, o := range outcomes {
					total += o.Stats.Duration
				}
				ev := obs.Event{
					Type: obs.EvSessionEnd, Engine: exec.Name(), Dataset: ds.name,
					Session: label, Duration: total, TimedOut: rs.TimedOut,
				}
				if rs.FirstErr != nil {
					ev.Err = rs.FirstErr.Error()
				}
				e.Cfg.Obs.Record(ev)
				results[u] = rs
			}(u, sess)
		}
		wg.Wait()
		wall := time.Since(start)
		cancel()
		eng.Close()
		completed := 0
		for u, rs := range results {
			completed += rs.Completed
			n := len(sessions[u].Queries)
			if rs.FirstErr != nil {
				notes = append(notes, fmt.Sprintf("(%d users: user%d skipped %d/%d queries, first: %v)",
					users, u, rs.Skipped, n, rs.FirstErr))
			}
			if rs.TimedOut {
				notes = append(notes, fmt.Sprintf("(%d users: user%d timed out after %d/%d queries)",
					users, u, rs.Completed, n))
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", users),
			fmt.Sprintf("%d", queries),
			fmt.Sprintf("%d", completed),
			FormatDuration(wall),
			fmt.Sprintf("%.0f", float64(completed)/wall.Seconds()),
		})
	}
	res := tableResult("multiuser", []string{"concurrent users", "queries", "completed", "wall time", "queries/s"}, rows)
	res.note("(mixed novice/intermediate/expert population on one shared JODA instance)")
	for _, n := range notes {
		res.note(n)
	}
	return res, nil
}
