package harness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/faultsim"
	"github.com/joda-explore/betze/internal/jsonval"
)

// Experiment regenerates one figure or table of the paper.
type Experiment struct {
	// ID is the CLI identifier ("fig5", "table2", …).
	ID string
	// Title describes what the paper shows.
	Title string
	// Run executes the experiment and renders its result as text.
	Run func(ctx context.Context, e *Env) (*Result, error)
}

// Experiments lists every reproducible figure and table in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: default user configurations", Run: Table1},
		{ID: "fig5", Title: "Fig. 5: execution-time trends per user preset (n=20)", Run: Fig5},
		{ID: "fig6", Title: "Fig. 6: session execution time distribution per preset", Run: Fig6},
		{ID: "fig7", Title: "Fig. 7: session times over the alpha/beta grid (n=10)", Run: Fig7},
		{ID: "fig8", Title: "Fig. 8: distribution of generated predicates per dataset", Run: Fig8},
		{ID: "fig9", Title: "Fig. 9: runtime vs CPU threads (Twitter)", Run: Fig9},
		{ID: "fig10", Title: "Fig. 10: runtime vs document count (NoBench)", Run: Fig10},
		{ID: "table2", Title: "Table II: session time w/o import (seed 123)", Run: Table2},
		{ID: "table3", Title: "Table III: presets x aggregation configs x systems (seed 1)", Run: Table3},
		{ID: "table4", Title: "Table IV: path-depth distribution", Run: Table4},
		{ID: "gencost", Title: "Sec. VI-A: generation cost split (analysis vs generation)", Run: GenCost},
		{ID: "skew", Title: "Sec. VI-C: attribute reference skew", Run: Skew},
		{ID: "multiuser", Title: "Sec. III (beyond the paper): concurrent sessions on one JODA instance", Run: MultiUser},
		{ID: "resilience", Title: "Beyond the paper: queries completed vs injected fault rate, retries on vs off", Run: Resilience},
	}
}

// ByID resolves an experiment identifier.
func ByID(id string) (Experiment, error) {
	for _, exp := range Experiments() {
		if exp.ID == id {
			return exp, nil
		}
	}
	var ids []string
	for _, exp := range Experiments() {
		ids = append(ids, exp.ID)
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

// Table1 prints the preset parameters of Table I.
func Table1(context.Context, *Env) (*Result, error) {
	rows := make([][]string, 0, 3)
	for _, p := range core.Presets() {
		rows = append(rows, []string{p.Name,
			fmt.Sprintf("%.2f", p.Alpha), fmt.Sprintf("%.2f", p.Beta), fmt.Sprintf("%d", p.Queries)})
	}
	return tableResult("table1", []string{"preset", "go back probability (alpha)", "random jump probability (beta)", "queries per session"}, rows), nil
}

// Fig5 fixes n=20 for every preset and reports the mean runtime of the i-th
// query across sessions, executed on JODA only.
func Fig5(ctx context.Context, e *Env) (*Result, error) {
	ds, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	const n = 20
	sums := map[string][]time.Duration{}
	for _, preset := range core.Presets() {
		perQuery := make([]time.Duration, n)
		runs := 0
		for s := 0; s < e.Cfg.Sessions; s++ {
			sess, err := ds.generate(core.Options{Preset: preset, Queries: n, Seed: e.Cfg.Seed + int64(s)})
			if err != nil {
				return nil, fmt.Errorf("fig5 %s session %d: %w", preset.Name, s, err)
			}
			res := e.run(ctx, e.unit(Systems["joda"], 0, ds, sess))
			if err := res.Err(); err != nil || res.Error != "" {
				return nil, fmt.Errorf("fig5: %v / %s", err, res.Error)
			}
			times := res.QueryTimes()
			if len(times) != n {
				continue // timed out; skip this session
			}
			for i, d := range times {
				perQuery[i] += d
			}
			runs++
		}
		if runs == 0 {
			return nil, fmt.Errorf("fig5: every %s session timed out", preset.Name)
		}
		avg := make([]time.Duration, n)
		for i := range perQuery {
			avg[i] = perQuery[i] / time.Duration(runs)
		}
		sums[preset.Name] = avg
	}
	rows := make([][]string, n)
	for i := 0; i < n; i++ {
		rows[i] = []string{fmt.Sprintf("q%d", i+1),
			FormatDuration(sums["novice"][i]),
			FormatDuration(sums["intermediate"][i]),
			FormatDuration(sums["expert"][i])}
	}
	return tableResult("fig5", []string{"query", "novice", "intermediate", "expert"}, rows), nil
}

// Fig6 reports the distribution of full-session execution times per preset
// with the natural session lengths (20/10/5).
func Fig6(ctx context.Context, e *Env) (*Result, error) {
	ds, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, preset := range core.Presets() {
		var totals []time.Duration
		for s := 0; s < e.Cfg.Sessions; s++ {
			sess, err := ds.generate(core.Options{Preset: preset, Seed: e.Cfg.Seed + int64(s)})
			if err != nil {
				return nil, fmt.Errorf("fig6 %s session %d: %w", preset.Name, s, err)
			}
			res := e.run(ctx, e.unit(Systems["joda"], 0, ds, sess))
			if err := res.Err(); err != nil || res.Error != "" {
				return nil, fmt.Errorf("fig6: %v / %s", err, res.Error)
			}
			totals = append(totals, res.Total())
		}
		b := box(totals)
		rows = append(rows, []string{preset.Name,
			FormatDuration(b.Min), FormatDuration(b.Q1), FormatDuration(b.Median),
			FormatDuration(b.Q3), FormatDuration(b.Max)})
	}
	return tableResult("fig6", []string{"preset", "min", "q1", "median", "q3", "max"}, rows), nil
}

// Fig7 sweeps the alpha/beta grid with n=10 queries per session and reports
// the mean session time per cell (JODA only, like the paper's
// benchmark-centric experiments).
func Fig7(ctx context.Context, e *Env) (*Result, error) {
	ds, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	header := []string{"alpha\\beta"}
	for b := 0; b < 10; b++ {
		header = append(header, fmt.Sprintf("%.1f", float64(b)/10))
	}
	var rows [][]string
	seed := e.Cfg.Seed
	for a := 0; a < 10; a++ {
		alpha := float64(a) / 10
		row := []string{fmt.Sprintf("%.1f", alpha)}
		for b := 0; b < 10; b++ {
			beta := float64(b) / 10
			if alpha+beta > 1 {
				row = append(row, "-")
				continue
			}
			var total time.Duration
			runs := 0
			for s := 0; s < e.Cfg.GridSessions; s++ {
				seed++
				sess, err := ds.generate(core.Options{
					Alpha: core.Float64(alpha), Beta: core.Float64(beta),
					Queries: 10, Seed: seed,
				})
				if err != nil {
					return nil, fmt.Errorf("fig7 a=%.1f b=%.1f: %w", alpha, beta, err)
				}
				res := e.run(ctx, e.unit(Systems["joda"], 0, ds, sess))
				if err := res.Err(); err != nil || res.Error != "" {
					return nil, fmt.Errorf("fig7: %v / %s", err, res.Error)
				}
				total += res.Total()
				runs++
			}
			row = append(row, fmt.Sprintf("%.3fs", (total/time.Duration(runs)).Seconds()))
		}
		rows = append(rows, row)
	}
	return tableResult("fig7", header, rows), nil
}

// Fig8 tallies the generated predicate types per dataset: a preset sweep on
// Twitter and one default session each on NoBench and Reddit.
func Fig8(ctx context.Context, e *Env) (*Result, error) {
	type datasetCase struct {
		label    string
		ds       *datasetEnv
		sessions []*core.Session
	}
	tw, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	nb, err := e.NoBench(e.Cfg.NoBenchDocs)
	if err != nil {
		return nil, err
	}
	rd, err := e.Reddit()
	if err != nil {
		return nil, err
	}
	var cases []datasetCase
	var twSessions []*core.Session
	for _, preset := range core.Presets() {
		for s := 0; s < e.Cfg.Sessions; s++ {
			sess, err := tw.generate(core.Options{Preset: preset, Seed: e.Cfg.Seed + int64(s)})
			if err != nil {
				return nil, fmt.Errorf("fig8 twitter: %w", err)
			}
			twSessions = append(twSessions, sess)
		}
	}
	cases = append(cases, datasetCase{"Twitter", tw, twSessions})
	nbSess, err := nb.generate(core.Options{Seed: 123})
	if err != nil {
		return nil, fmt.Errorf("fig8 nobench: %w", err)
	}
	cases = append(cases, datasetCase{"NoBench", nb, []*core.Session{nbSess}})
	rdSess, err := rd.generate(core.Options{Seed: 123})
	if err != nil {
		return nil, fmt.Errorf("fig8 reddit: %w", err)
	}
	cases = append(cases, datasetCase{"Reddit", rd, []*core.Session{rdSess}})

	counts := map[string]map[string]int64{}
	kindSet := map[string]bool{}
	for _, c := range cases {
		agg := map[string]int64{}
		for _, sess := range c.sessions {
			for kind, n := range sess.PredicateCounts() {
				agg[kind] += n
				kindSet[kind] = true
			}
		}
		counts[c.label] = agg
	}
	kinds := make([]string, 0, len(kindSet))
	for k := range kindSet {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var rows [][]string
	for _, kind := range kinds {
		rows = append(rows, []string{kind,
			fmt.Sprintf("%d", counts["Twitter"][kind]),
			fmt.Sprintf("%d", counts["NoBench"][kind]),
			fmt.Sprintf("%d", counts["Reddit"][kind])})
	}
	return tableResult("fig8", []string{"predicate", "Twitter", "NoBench", "Reddit"}, rows), nil
}

// Fig9 sweeps the JODA thread count over the Twitter session (intermediate
// preset, seed 123); the single-threaded engines are measured once and
// repeated, as their execution does not depend on the sweep.
func Fig9(ctx context.Context, e *Env) (*Result, error) {
	ds, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	sess, err := ds.generate(core.Options{Seed: 123})
	if err != nil {
		return nil, err
	}
	flat := map[string]SessionRecord{}
	for _, key := range paperSystems[1:] {
		flat[key] = e.run(ctx, e.unit(Systems[key], 0, ds, sess))
	}
	var rows [][]string
	for _, t := range e.Cfg.Threads {
		res := e.run(ctx, e.unit(Systems["joda"], t, ds, sess))
		rows = append(rows, []string{fmt.Sprintf("%d", t),
			res.cell(), flat["mongodb"].cell(), flat["postgres"].cell(), flat["jq"].cell()})
	}
	res := tableResult("fig9", []string{"threads", "JODA", "MongoDB", "PostgreSQL", "jq"}, rows)
	res.note("(single-threaded systems measured once; they do not scale with threads)")
	return res, nil
}

// Fig10 sweeps the NoBench document count and reports the wall-clock time
// including import, with the configured timeout (jq drops out first, as in
// the paper).
func Fig10(ctx context.Context, e *Env) (*Result, error) {
	sessOpts := core.Options{Seed: 123}
	var rows [][]string
	for _, n := range e.Cfg.NoBenchSweep {
		ds, err := e.NoBench(n)
		if err != nil {
			return nil, err
		}
		sess, err := ds.generate(sessOpts)
		if err != nil {
			return nil, fmt.Errorf("fig10 n=%d: %w", n, err)
		}
		row := []string{fmt.Sprintf("%d", n)}
		for _, key := range paperSystems {
			res := e.run(ctx, e.unit(Systems[key], 0, ds, sess))
			if res.Error != "" || res.Err() != nil || res.TimedOut {
				row = append(row, res.cell())
				continue
			}
			row = append(row, FormatDuration(res.Wall()))
		}
		rows = append(rows, row)
		if n != e.Cfg.NoBenchDocs {
			e.ReleaseNoBench(n) // sweep sizes are not reused elsewhere
		}
	}
	return tableResult("fig10", []string{"documents", "JODA", "MongoDB", "PostgreSQL", "jq"}, rows), nil
}

// Table2 reports session execution time without import for the intermediate
// preset with seed 123, on Twitter and NoBench, including JODA's eviction
// mode.
func Table2(ctx context.Context, e *Env) (*Result, error) {
	tw, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	nb, err := e.NoBench(e.Cfg.NoBenchDocs)
	if err != nil {
		return nil, err
	}
	systems := []string{"joda", "joda-evicted", "mongodb", "postgres", "jq"}
	dsCases := []struct {
		label string
		ds    *datasetEnv
	}{{"Twitter", tw}, {"NoBench", nb}}
	rows := make([][]string, len(systems))
	for i, key := range systems {
		rows[i] = []string{Systems[key].Name}
	}
	for _, dc := range dsCases {
		sess, err := dc.ds.generate(core.Options{Seed: 123})
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", dc.label, err)
		}
		for i, key := range systems {
			rows[i] = append(rows[i], e.run(ctx, e.unit(Systems[key], 0, dc.ds, sess)).cell())
		}
	}
	return tableResult("table2", []string{"system", "Twitter", "NoBench"}, rows), nil
}

// Table3 crosses presets, aggregation configurations, systems and datasets
// with seed 1. PostgreSQL fails to load the Reddit dataset (U+0000 bodies),
// exactly like the paper's Table III.
func Table3(ctx context.Context, e *Env) (*Result, error) {
	tw, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	nb, err := e.NoBench(e.Cfg.NoBenchDocs)
	if err != nil {
		return nil, err
	}
	rd, err := e.Reddit()
	if err != nil {
		return nil, err
	}
	type cfgCase struct {
		label string
		opts  core.Options
	}
	configs := []cfgCase{
		{"Default", core.Options{}},
		{"Agg", core.Options{Aggregate: true}},
		{"GAgg", core.Options{Aggregate: true, GroupBy: true}},
	}
	dsCases := []struct {
		label string
		ds    *datasetEnv
	}{{"Twitter", tw}, {"NoBench", nb}, {"Reddit", rd}}

	header := []string{"dataset", "system"}
	for _, preset := range core.Presets() {
		for _, c := range configs {
			header = append(header, preset.Name[:3]+"-"+c.label)
		}
	}
	var rows [][]string
	for _, dc := range dsCases {
		for _, key := range paperSystems {
			row := []string{dc.label, Systems[key].Name}
			for _, preset := range core.Presets() {
				for _, c := range configs {
					opts := c.opts
					opts.Preset = preset
					opts.Seed = 1
					sess, err := dc.ds.generate(opts)
					if err != nil {
						return nil, fmt.Errorf("table3 %s/%s/%s: %w", dc.label, preset.Name, c.label, err)
					}
					res := e.run(ctx, e.unit(Systems[key], 0, dc.ds, sess))
					row = append(row, res.cell())
				}
			}
			rows = append(rows, row)
		}
	}
	return tableResult("table3", header, rows), nil
}

// Table4 compares the path-depth distribution of the documents with the
// distribution of attribute references in default and weighted-path
// sessions.
func Table4(ctx context.Context, e *Env) (*Result, error) {
	ds, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	docDepth := map[int]int64{}
	var docTotal int64
	for p, ps := range ds.stats.Paths {
		docDepth[p.Depth()] += ps.Count
		docTotal += ps.Count
	}
	refDepth := func(weighted bool) (map[int]int64, int64) {
		depth := map[int]int64{}
		var total int64
		for s := 0; s < e.Cfg.Sessions; s++ {
			sess, err := ds.generate(core.Options{Preset: core.Novice, Seed: e.Cfg.Seed + int64(s), WeightedPaths: weighted})
			if err != nil {
				continue
			}
			for d, n := range sess.DepthDistribution() {
				depth[d] += n
				total += n
			}
		}
		return depth, total
	}
	defDepth, defTotal := refDepth(false)
	wDepth, wTotal := refDepth(true)
	maxDepth := 0
	for d := range docDepth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	var rows [][]string
	for d := 0; d <= maxDepth; d++ {
		rows = append(rows, []string{fmt.Sprintf("%d", d),
			percent(docDepth[d], docTotal),
			percent(defDepth[d], defTotal),
			percent(wDepth[d], wTotal)})
	}
	return tableResult("table4", []string{"path depth", "documents", "queries default", "queries weighted paths"}, rows), nil
}

// GenCost reports the analysis/generation time split of §VI-A, on a
// few-path dataset (Twitter) and a many-path one (NoBench), with the
// generator verifying selectivities against the backend and estimating them
// from the summary alone.
func GenCost(ctx context.Context, e *Env) (*Result, error) {
	tw, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	nb, err := e.NoBench(e.Cfg.NoBenchDocs)
	if err != nil {
		return nil, err
	}
	sessions := len(core.Presets()) * e.Cfg.Sessions
	var rows [][]string
	for _, ds := range []*datasetEnv{tw, nb} {
		row := []string{ds.name, fmt.Sprintf("%d", len(ds.stats.Paths)), FormatDuration(ds.analysis)}
		for _, backend := range []core.Backend{ds.backend, nil} {
			var total time.Duration
			for _, preset := range core.Presets() {
				for s := 0; s < e.Cfg.Sessions; s++ {
					start := time.Now()
					_, err := core.Generate(core.Options{Preset: preset, Queries: 20, Seed: e.Cfg.Seed + int64(s), Backend: backend}, ds.stats)
					if err != nil {
						return nil, fmt.Errorf("gencost: %w", err)
					}
					total += time.Since(start)
				}
			}
			row = append(row, FormatDuration(total/time.Duration(sessions)))
		}
		rows = append(rows, row)
	}
	res := tableResult("gencost", []string{"dataset", "paths", "dataset analysis time",
		"query generation time per session, verified", "estimated"}, rows)
	res.note(fmt.Sprintf("%d sessions of 20 queries per cell; analysis runs once per dataset and is reusable", sessions))
	return res, nil
}

// Skew reports the attribute-reference skew of §VI-C: the share of
// references going to the top-10 and top-20 distinct attributes.
func Skew(ctx context.Context, e *Env) (*Result, error) {
	ds, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	refs := map[jsonval.Path]int64{}
	var total int64
	for _, preset := range core.Presets() {
		for s := 0; s < e.Cfg.Sessions; s++ {
			sess, err := ds.generate(core.Options{Preset: preset, Queries: 20, Seed: e.Cfg.Seed + int64(s)})
			if err != nil {
				return nil, fmt.Errorf("skew: %w", err)
			}
			for _, p := range sess.PathReferences() {
				refs[p]++
				total++
			}
		}
	}
	type pathCount struct {
		path  jsonval.Path
		count int64
	}
	ranked := make([]pathCount, 0, len(refs))
	for p, c := range refs {
		ranked = append(ranked, pathCount{p, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].path < ranked[j].path
	})
	topShare := func(k int) int64 {
		var sum int64
		for i := 0; i < k && i < len(ranked); i++ {
			sum += ranked[i].count
		}
		return sum
	}
	res := tableResult("skew", []string{"metric", "value"}, [][]string{
		{"attribute references", fmt.Sprintf("%d to %d distinct attributes", total, len(ranked))},
		{"top-10 attributes", fmt.Sprintf("%d references (%s)", topShare(10), percent(topShare(10), total))},
		{"top-20 attributes", fmt.Sprintf("%d references (%s)", topShare(20), percent(topShare(20), total))},
	})
	topRows := make([][]string, 0, 10)
	for i := 0; i < 10 && i < len(ranked); i++ {
		topRows = append(topRows, []string{string(ranked[i].path), fmt.Sprintf("%d", ranked[i].count)})
	}
	res.Tables = append(res.Tables, ResultTable{
		Name:   "skew_top_attributes",
		Header: []string{"attribute", "references"},
		Rows:   topRows,
	})
	return res, nil
}

// Resilience runs one Twitter session (seed 123, JODA) under increasing
// injected fault rates, with and without the retrying executor, and reports
// queries completed, retries, skips, and crash recoveries. The injection is
// deterministic per fault seed, so the row for a given rate is a fixture:
// whatever the no-retry run drops, the retrying run completes.
func Resilience(ctx context.Context, e *Env) (*Result, error) {
	ds, err := e.Twitter()
	if err != nil {
		return nil, err
	}
	sess, err := ds.generate(core.Options{Seed: 123})
	if err != nil {
		return nil, fmt.Errorf("resilience: %w", err)
	}
	rates := []float64{0, 0.2, 0.5}
	policies := []struct {
		label string
		pol   RetryPolicy
	}{
		{"off", RetryPolicy{}},
		{"on", DefaultRetryPolicy()},
	}
	var rows [][]string
	for _, rate := range rates {
		for _, pc := range policies {
			u := e.unit(Systems["joda"], 0, ds, sess)
			u.Faults, u.Retry = faultsim.Options{Seed: e.Cfg.Seed, Rate: rate}, pc.pol
			res := e.run(ctx, u)
			completed := fmt.Sprintf("%d/%d", res.Completed, len(sess.Queries))
			if res.Error != "" {
				completed = "load failed"
			}
			rows = append(rows, []string{
				fmt.Sprintf("%.0f%%", rate*100),
				pc.label,
				completed,
				fmt.Sprintf("%d", res.Retries),
				fmt.Sprintf("%d", res.Skipped),
				fmt.Sprintf("%d", res.Recovered),
			})
		}
	}
	res := tableResult("resilience",
		[]string{"fault rate", "retries", "completed", "retried", "skipped", "recovered"}, rows)
	res.note("(one Twitter session, seed 123, on JODA; faults injected deterministically from the base seed)")
	return res, nil
}
