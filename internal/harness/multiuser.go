package harness

import (
	"context"
	"fmt"
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
// RunSession, without imports, with Config.Retry, so a failed query is
// retried, then skipped and noted — it does not abort the user or the
// experiment — and every user's session is bracketed by EvSessionStart and
// EvSessionEnd. With Config.Faults enabled, the shared engine is wrapped
// with the deterministic fault injector.
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
		results := make([]SessionRecord, users)
		queries := 0
		for u, sess := range sessions {
			queries += len(sess.Queries)
			wg.Add(1)
			go func(u int, sess *core.Session) {
				defer wg.Done()
				label := fmt.Sprintf("%s/user%d", ds.name, u)
				results[u] = RunSession(ctx, exec, nil, sess.Queries, e.Cfg.Retry, label)
			}(u, sess)
		}
		wg.Wait()
		wall := time.Since(start)
		cancel()
		eng.Close()
		completed := 0
		for u, rec := range results {
			completed += rec.Completed
			n := len(sessions[u].Queries)
			if err := rec.Err(); err != nil {
				notes = append(notes, fmt.Sprintf("(%d users: user%d skipped %d/%d queries, first: %v)",
					users, u, rec.Skipped, n, err))
			}
			if rec.TimedOut {
				notes = append(notes, fmt.Sprintf("(%d users: user%d timed out after %d/%d queries)",
					users, u, rec.Completed, n))
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
