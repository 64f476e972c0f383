package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/joda-explore/betze/internal/analyze"
	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/jodasim"
	"github.com/joda-explore/betze/internal/engine/jqsim"
	"github.com/joda-explore/betze/internal/engine/mongosim"
	"github.com/joda-explore/betze/internal/engine/pgsim"
	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/langs"
	_ "github.com/joda-explore/betze/internal/langs/all" // the four translators
	"github.com/joda-explore/betze/internal/query"
)

// sim is one of the four systems under test. key names its end-to-end metric
// (session_s.<key>), layer its per-layer prefix, campaign its name in the
// betze-web campaign API.
type sim struct {
	key, layer, campaign string
	open                 func(jqDir string) (engine.Engine, error)
}

var sims = []sim{
	{"joda", "jodasim", "joda", func(string) (engine.Engine, error) { return jodasim.New(jodasim.Options{}), nil }},
	{"mongo", "mongosim", "mongodb", func(string) (engine.Engine, error) { return mongosim.New(mongosim.Options{}), nil }},
	{"pg", "pgsim", "postgres", func(string) (engine.Engine, error) { return pgsim.New(pgsim.Options{}), nil }},
	{"jq", "jqsim", "jq", func(dir string) (engine.Engine, error) { return jqsim.New(dir) }},
}

// pipeline drives the paper's pipeline for one workload by calling each
// layer's public functions and timing the calls from outside.
type pipeline struct {
	def  workloadDef
	src  datasets.Source
	docs int
	seed int64
	dir  string // scratch directory, removed by the caller
	path string // the dataset file
	size int64  // its size in bytes
	// stats is the analysis every session is generated from. It is computed
	// once with a single worker: jsonstats.Dataset.Merge keeps whichever
	// strings Go's map order offers first once a string table overflows, so
	// the parallel analyzer's summary — and every session generated from it —
	// differs from run to run, and the sessions digest could not repeat. The
	// timed analyze stage still runs analyze.File as a user would.
	stats *jsonstats.Dataset
	res   *runResult
}

func newPipeline(def workloadDef, docs int, seed int64, dir string, res *runResult) *pipeline {
	p := &pipeline{def: def, docs: docs, seed: seed, dir: dir, res: res, path: filepath.Join(dir, "dataset.json")}
	switch def.Kind {
	case "twitter":
		p.src = datasets.NewTwitter()
	case "nobench":
		p.src = datasets.NewNoBench()
	default:
		// Clean bodies: the U+0000 import failure of Table III is a
		// correctness experiment, and here no operation may fail.
		p.src = datasets.NewReddit(datasets.RedditOptions{NullByteFraction: -1})
	}
	return p
}

// setup is one set-up round: everything the timed repeats need beforehand —
// generate and write the dataset, analyze it for the generator, and whatever
// more the workload has to prepare. The round's dataset write time and whole
// time are appended to m.
func (p *pipeline) setup(m *windowRuns, more func() error) error {
	var write time.Duration
	d, err := timed(func() (err error) {
		start := time.Now()
		if err = p.src.WriteFile(p.path, p.docs, p.seed); err != nil {
			return err
		}
		write = time.Since(start)
		if p.stats, err = analyze.File(p.src.Name, p.path, analyze.Options{Workers: 1}); err != nil || more == nil {
			return err
		}
		return more()
	})
	if err != nil {
		return err
	}
	m.writes, m.setups = append(m.writes, write.Seconds()), append(m.setups, d.Seconds())
	info, err := os.Stat(p.path)
	if err != nil {
		return err
	}
	p.size = info.Size()
	return nil
}

// timedSpan collects garbage, then times fn under a new span: every timed
// unit starts from a settled heap, so one unit's garbage is not billed to the
// next, and the collection is outside both the time and the span. fn gets the
// span to hang children on; the caller ends it with the unit's attributes.
func timedSpan(tr *tracer, parent span, name string, fn func(sp span) error) (span, time.Duration, error) {
	runtime.GC()
	sp := tr.start(parent, name)
	start := time.Now()
	err := fn(sp)
	return sp, time.Since(start), err
}

// timed is timedSpan for the untraced set-up rounds.
func timed(fn func() error) (time.Duration, error) {
	_, d, err := timedSpan(nil, span{}, "", func(span) error { return fn() })
	return d, err
}

// queryRun is one executed query: the engine's own statistics and the wall
// time the benchmark measured around the call.
type queryRun struct {
	stats engine.ExecStats
	dur   time.Duration
}

// engineRun is one session on one fresh engine.
type engineRun struct {
	imp        engine.ImportStats
	impDur     time.Duration
	queries    []queryRun
	storeBytes int64         // bytes jqsim left in its store directory
	wall       time.Duration // open + import + every query + close
	failed     bool
}

func (e engineRun) executeSeconds() float64 {
	var t time.Duration
	for _, q := range e.queries {
		t += q.dur
	}
	return t.Seconds()
}

// sessionRun is one generated session and its four executions.
type sessionRun struct {
	// seed and queries are all that is kept of the generated session: its
	// dependency graph carries per-node statistics, and holding those for
	// every session of a window would distort peak_rss_mb.
	seed         int64
	queries      []*query.Query
	genDur       time.Duration
	backendCalls int64
	backendWait  time.Duration
	scriptDur    time.Duration
	engines      []engineRun // indexed like sims
}

// repeatRun is one pass over the whole pipeline.
type repeatRun struct {
	analyzeDur       time.Duration
	backendImportDur time.Duration
	sessions         []sessionRun
}

// wall is the sum of the repeat's timed units: the forced collections
// between units and the benchmark's own bookkeeping are not pipeline time.
func (r repeatRun) wall() time.Duration {
	t := r.analyzeDur + r.backendImportDur
	for _, s := range r.sessions {
		t += s.genDur + s.scriptDur
		for _, e := range s.engines {
			t += e.wall
		}
	}
	return t
}

// countingBackend wraps the generator's verification backend to count and
// time its calls — the generator's wait on the data processor (§IV-B).
type countingBackend struct {
	inner core.Backend
	calls int64
	wait  time.Duration
}

func (b *countingBackend) CountMatching(base string, pred query.Predicate) (int64, error) {
	start := time.Now()
	n, err := b.inner.CountMatching(base, pred)
	b.calls++
	b.wait += time.Since(start)
	return n, err
}

// sessionSeed is the explorer seed of session j of repeat r. Every repeat
// explores afresh, so a run averages over many sessions and two runs with
// different -seed values do comparable work.
func (p *pipeline) sessionSeed(r, j int) int64 {
	return p.seed + int64(r*p.def.Sessions+j)
}

// attempt counts one operation and records its failure, if any.
func (p *pipeline) attempt(what string, err error) bool {
	p.res.Attempted++
	if err != nil {
		p.res.fail("%s: %v", what, err)
	}
	return err == nil
}

// repeat runs the pipeline once: analyze, import into the verification
// backend, generate and translate S sessions, then execute each session on a
// fresh instance of each sim with results sent to io.Discard.
func (p *pipeline) repeat(ctx context.Context, r int, tr *tracer, parent span) (repeatRun, error) {
	var rep repeatRun
	sp := tr.start(parent, "repeat")
	defer func() { sp.end("repeat", r, "wall_s", rep.wall().Seconds()) }()

	st, dur, err := timedSpan(tr, sp, "analyze", func(span) error {
		_, err := analyze.File(p.src.Name, p.path, analyze.Options{})
		return err
	})
	rep.analyzeDur = dur
	st.end("bytes", p.size)
	if !p.attempt("analyze", err) {
		return rep, err
	}

	var backend *jodasim.Engine
	if !p.def.Web {
		backend = jodasim.New(jodasim.Options{})
		defer backend.Close()
		st, rep.backendImportDur, err = timedSpan(tr, sp, "backend_import", func(span) error {
			_, err := backend.ImportFile(ctx, p.src.Name, p.path)
			return err
		})
		st.end()
		if !p.attempt("backend import", err) {
			return rep, err
		}
	}

	for j := 0; j < p.def.Sessions; j++ {
		var s sessionRun
		opts := core.Options{
			Preset: p.def.Preset, Seed: p.sessionSeed(r, j),
			Aggregate: p.def.Aggregate, Materialize: p.def.Materialize,
		}
		var cb *countingBackend
		if backend != nil {
			cb = &countingBackend{inner: backend}
			opts.Backend = cb
		}
		st, s.genDur, err = timedSpan(tr, sp, "generate", func(span) error {
			session, err := core.Generate(opts, p.stats)
			if err == nil {
				s.seed, s.queries = session.Seed, session.Queries
			}
			return err
		})
		if cb != nil {
			s.backendCalls, s.backendWait = cb.calls, cb.wait
		}
		st.end("seed", opts.Seed, "backend_calls", s.backendCalls)
		if !p.attempt("generate", err) {
			return rep, err
		}

		st, s.scriptDur, _ = timedSpan(tr, sp, "translate", func(span) error {
			for _, l := range langs.All() {
				_ = langs.Script(l, s.queries)
			}
			return nil
		})
		st.end("queries", len(s.queries))
		rep.sessions = append(rep.sessions, s)
	}

	for j := range rep.sessions {
		s := &rep.sessions[j]
		ssp := tr.start(sp, "session")
		for i := range sims {
			run, err := p.runEngine(ctx, tr, ssp, sims[i], s.queries)
			if err != nil {
				ssp.end()
				return rep, err
			}
			s.engines = append(s.engines, run)
		}
		ssp.end("seed", s.seed)
	}
	return rep, nil
}

// runEngine executes one session on a fresh engine. An engine that fails an
// operation is counted and marked; only a benchmark-side error is returned.
func (p *pipeline) runEngine(ctx context.Context, tr *tracer, parent span, sm sim, queries []*query.Query) (engineRun, error) {
	var run engineRun
	jqDir, err := os.MkdirTemp(p.dir, "jq-")
	if err != nil {
		return run, err
	}
	defer os.RemoveAll(jqDir)

	sp, wall, err := timedSpan(tr, parent, sm.key, func(sp span) error {
		eng, err := sm.open(jqDir)
		if err != nil {
			return err
		}
		defer eng.Close()

		isp := tr.start(sp, "import")
		start := time.Now()
		run.imp, err = eng.ImportFile(ctx, p.src.Name, p.path)
		run.impDur = time.Since(start)
		isp.end("docs", run.imp.Docs, "stored_bytes", run.imp.StoredBytes)
		if !p.attempt(sm.key+" import", err) {
			run.failed = true
			return nil
		}
		for _, q := range queries {
			qsp := tr.start(sp, "query:"+q.ID)
			start := time.Now()
			stats, err := eng.Execute(ctx, q, io.Discard)
			dur := time.Since(start)
			qsp.end("scanned", stats.Scanned, "skipped", stats.Skipped, "matched", stats.Matched, "output_bytes", stats.OutputBytes)
			if !p.attempt(sm.key+" "+q.ID, err) {
				run.failed = true
				return nil
			}
			run.queries = append(run.queries, queryRun{stats, dur})
		}
		// Close deletes jqsim's store files, so they are sized first.
		run.storeBytes, err = dirBytes(jqDir)
		return err
	})
	run.wall = wall
	sp.end("wall_s", wall.Seconds())
	return run, err
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// windowRuns is what one run's measuring window produced.
type windowRuns struct {
	// writes and setups are each set-up round's dataset write time and
	// whole time, in seconds.
	writes, setups   []float64
	untraced, traced []repeatRun
}

// measure fills the window with rounds — a set-up, then one whole repeat —
// and stops once another round of average length would overrun, never before
// minRepeats. With a tracer every repeat runs twice on the same sessions,
// traced and untraced in alternating order. Setting up again before every
// repeat (the same seed writes the same file) spreads the set-up samples over
// the window like every other metric's: the sandbox's speed shifts by a
// quarter for seconds at a time, and set-ups bunched at the start would all
// see one level. With web set, the rounds also carry the served half of
// web-campaign, see webRun.round.
func (p *pipeline) measure(ctx context.Context, d time.Duration, tr *tracer, root span, web *webRun) (windowRuns, error) {
	var m windowRuns
	var inProcess time.Duration
	start := time.Now()
	for r := 0; ; r++ {
		if r >= minRepeats && time.Since(start)*time.Duration(r+1) > d*time.Duration(r) {
			return m, nil
		}
		if web == nil {
			if err := p.setup(&m, nil); err != nil {
				return m, err
			}
		} else if err := web.round(ctx, &m, d, inProcess, tr, root); err != nil {
			return m, err
		}
		order := []*tracer{nil}
		if tr != nil {
			order = []*tracer{nil, tr}
			if r%2 == 1 {
				order[0], order[1] = order[1], order[0]
			}
		}
		t0 := time.Now()
		for _, t := range order {
			rep, err := p.repeat(ctx, r, t, root)
			if err != nil {
				return m, err
			}
			if t == nil {
				m.untraced = append(m.untraced, rep)
			} else {
				m.traced = append(m.traced, rep)
			}
		}
		inProcess += time.Since(t0)
	}
}

// readDocs parses the dataset file: the reference evaluator's and the kernel
// replays' view of the data, loaded only after the timed window so that it
// does not count towards peak_rss_mb.
func (p *pipeline) readDocs(ctx context.Context) ([]jsonval.Value, error) {
	docs := make([]jsonval.Value, 0, p.docs)
	_, _, err := engine.ReadFile(ctx, p.path, func(d jsonval.Value) error {
		docs = append(docs, d)
		return nil
	})
	return docs, err
}

// expected is the reference evaluator's verdict on one query.
type expected struct{ matched, returned int64 }

// reference evaluates a session with Query.Matches over the base documents,
// chaining stored results the way a materialised session reads them.
func reference(base string, docs []jsonval.Value, queries []*query.Query) []expected {
	derived := map[string][]jsonval.Value{base: docs}
	out := make([]expected, len(queries))
	for i, q := range queries {
		var matched []jsonval.Value
		for _, d := range derived[q.Base] {
			if q.Matches(d) {
				matched = append(matched, d)
			}
		}
		out[i] = expected{int64(len(matched)), int64(len(matched))}
		if q.Agg != nil {
			agg := query.NewAggregator(*q.Agg)
			for _, d := range matched {
				agg.Add(d)
			}
			out[i].returned = int64(len(agg.Result()))
		}
		if q.Store != "" {
			derived[q.Store] = matched
		}
	}
	return out
}

// check is the correctness gate: per query, Matched and Returned of every sim
// must equal the reference evaluator's. It returns the digest of the first
// minRepeats repeats' sessions and verdicts, which two runs of the same code
// and seed must reproduce.
func (p *pipeline) check(docs []jsonval.Value, reps []repeatRun) string {
	h := sha256.New()
	for r, rep := range reps {
		for _, s := range rep.sessions {
			want := reference(p.src.Name, docs, s.queries)
			for i, q := range s.queries {
				if r < minRepeats {
					fmt.Fprintf(h, "%d %s -> %d %d\n", s.seed, q, want[i].matched, want[i].returned)
				}
				for k, e := range s.engines {
					if e.failed {
						continue // already counted where it failed
					}
					p.res.Attempted++
					got := e.queries[i].stats
					if got.Matched != want[i].matched || got.Returned != want[i].returned {
						p.res.fail("seed %d %s on %s: matched/returned %d/%d, reference %d/%d",
							s.seed, q.ID, sims[k].key, got.Matched, got.Returned, want[i].matched, want[i].returned)
					}
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// endToEnd derives the pipeline's end-to-end metrics from the untraced
// repeats: medians over repeats (over sessions for the generator), means over
// a repeat's sessions.
func (p *pipeline) endToEnd(reps []repeatRun, web bool) {
	var walls, analyzes, genMS []float64
	perSim := make([][]float64, len(sims))
	for _, rep := range reps {
		walls = append(walls, rep.wall().Seconds())
		analyzes = append(analyzes, rep.analyzeDur.Seconds())
		simSum := make([]float64, len(sims))
		for _, s := range rep.sessions {
			genMS = append(genMS, 1e3*s.genDur.Seconds()/float64(len(s.queries)))
			for k, e := range s.engines {
				simSum[k] += e.wall.Seconds()
			}
		}
		for k := range sims {
			perSim[k] = append(perSim[k], simSum[k]/float64(len(rep.sessions)))
		}
	}
	n := len(reps)
	if !web { // on web-campaign a unit of work is a campaign, not a repeat
		p.res.set("pipeline_s", median(walls), n)
	}
	p.res.set("analyze_mb_per_s", float64(p.size)/1e6/median(analyzes), n)
	p.res.set("generate_ms_per_query", median(genMS), len(genMS))
	for k, sm := range sims {
		p.res.set("session_s."+sm.key, median(perSim[k]), n)
	}
}

// perLayer derives the engine-level layer metrics from the traced repeats.
// Exact counts use the first minRepeats repeats only.
func (p *pipeline) perLayer(traced, untraced []repeatRun) {
	res := p.res
	var analyzes, genPerRepeat, genS, waitS, scriptS, queries []float64
	var calls, exactQueries float64
	for r, rep := range traced {
		analyzes = append(analyzes, rep.analyzeDur.Seconds())
		var g float64
		for _, s := range rep.sessions {
			g += s.genDur.Seconds()
			genS = append(genS, s.genDur.Seconds())
			waitS = append(waitS, s.backendWait.Seconds())
			scriptS = append(scriptS, s.scriptDur.Seconds())
			queries = append(queries, float64(len(s.queries)))
			if r < minRepeats {
				calls += float64(s.backendCalls)
				exactQueries += float64(len(s.queries))
			}
		}
		genPerRepeat = append(genPerRepeat, g)
	}
	n := len(traced)
	res.set("analyze.busy_s", mean(analyzes), n)
	res.set("jsonstats.paths", float64(len(p.stats.Paths)), 1)
	res.set("core.generate_busy_s", mean(genPerRepeat), n)
	res.set("core.backend_calls_per_query", ratio(calls, exactQueries), int(exactQueries))
	res.set("core.backend_wait_share", ratio(sum(waitS), sum(genS)), len(genS))
	// Four scripts are rendered per session, one per language.
	res.set("langs.script_us_per_query", 1e6*sum(scriptS)/sum(queries)/float64(len(langs.All())), len(scriptS))

	for k, sm := range sims {
		var impBytes, impS, execS, queryMS []float64
		var scanned, skipped, stored, raw, storeBytes, slots, sessions float64
		for r, rep := range traced {
			for _, s := range rep.sessions {
				e := s.engines[k]
				impBytes = append(impBytes, float64(e.imp.Bytes))
				impS = append(impS, e.impDur.Seconds())
				execS = append(execS, e.executeSeconds())
				for _, q := range e.queries {
					queryMS = append(queryMS, 1e3*q.dur.Seconds())
				}
				if r >= minRepeats {
					continue
				}
				sessions++
				storeBytes += float64(e.storeBytes)
				stored += float64(e.imp.StoredBytes)
				raw += float64(e.imp.Bytes)
				for _, q := range e.queries {
					scanned += float64(q.stats.Scanned)
					skipped += float64(q.stats.Skipped)
					slots += float64(p.docs)
				}
			}
		}
		if sm.key != "jq" {
			res.set(sm.layer+".import_mb_per_s", sum(impBytes)/1e6/sum(impS), len(impS))
		}
		res.set(sm.layer+".execute_s", mean(execS), len(execS))
		res.setPercentile(sm.layer+".query_p50_ms", queryMS, 0.5)
		res.setPercentile(sm.layer+".query_p80_ms", queryMS, 0.8)
		switch sm.key {
		case "joda":
			// Scanned documents per (query x dataset size): below 1 is what
			// the result cache and derived datasets saved.
			res.set("jodasim.scanned_share", ratio(scanned, slots), int(slots))
		case "jq":
			res.set("jqsim.store_write_mb", storeBytes/1e6/sessions, int(sessions))
		default:
			res.set(sm.layer+".skipped_share", ratio(skipped, scanned+skipped), int(scanned+skipped))
			res.set(sm.layer+".stored_ratio", ratio(stored, raw), int(sessions))
		}
	}

	// Repeat r ran twice on the same sessions, so a pair's ratio is free of
	// what differs between sessions.
	var byOrder [2][]float64
	for r := range traced {
		byOrder[r%2] = append(byOrder[r%2], traced[r].wall().Seconds()/untraced[r].wall().Seconds()-1)
	}
	res.set("trace.overhead_share", balanced(byOrder), len(traced))
}

// vmHWM reads a process's peak resident set size in MB from /proc.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
