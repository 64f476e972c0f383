package main

import (
	"context"
	"fmt"
	"html/template"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/joda-explore/betze"
	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/obs"
)

// config tunes the service side of betze-web; see the flags in main.go.
type config struct {
	dataDir    string
	workers    int
	maxQueued  int
	quotaRate  float64
	quotaBurst int
	// noSync skips journal fsync (tests only).
	noSync bool
}

// server is the betze-web HTTP handler: the interactive generator UI (held
// in memory, keyed by an increasing id) plus the durable campaign service
// backed by a journaled job queue.
type server struct {
	mux *http.ServeMux
	reg *obs.Registry
	cfg config

	// queue is nil until recoverQueue finishes replaying the journal; the
	// campaign endpoints shed with 503 + Retry-After in the meantime.
	queueMu    sync.RWMutex
	queue      *jobqueue.Queue
	pool       *jobqueue.Pool
	poolCancel context.CancelFunc
	// store holds the campaigns' materialised datasets, at most one per
	// worker.
	store *datasetStore

	mu       sync.Mutex
	nextID   int
	sessions map[int]*storedSession
}

// recoveryRetryAfter is the Retry-After hint handed to clients that arrive
// while the journal is still being replayed. Replay is proportional to the
// journal size, so a short constant backoff is the honest answer.
const recoveryRetryAfter = 2 * time.Second

// campaignQueue returns the journaled queue once recovery has finished, or
// a ShedError wrapping ErrRecovering that the shed helper maps to 503 with
// a Retry-After header.
func (s *server) campaignQueue() (*jobqueue.Queue, error) {
	s.queueMu.RLock()
	defer s.queueMu.RUnlock()
	if s.queue == nil {
		return nil, &jobqueue.ShedError{Err: jobqueue.ErrRecovering, RetryAfter: recoveryRetryAfter}
	}
	return s.queue, nil
}

type storedSession struct {
	id      int
	dataset string
	session *betze.Session
	scripts map[string]string // language short name -> script
}

// queueDir is the campaign journal directory.
func (s *server) queueDir() string { return filepath.Join(s.cfg.dataDir, "queue") }

// artifactPath is where a completed campaign's result document lives.
func (s *server) artifactPath(id string) string {
	return filepath.Join(s.cfg.dataDir, "artifacts", id+".json")
}

// newServer opens (or recovers) the campaign queue under cfg.dataDir and
// builds the handler. Workers do not run until start.
func newServer(cfg config) (*server, error) {
	s := newServerHandler(cfg)
	if err := s.recoverQueue(); err != nil {
		return nil, err
	}
	return s, nil
}

// newServerHandler builds the HTTP handler without opening the campaign
// queue: the server can accept connections immediately and answer the
// campaign endpoints with 503 + Retry-After until recoverQueue completes.
func newServerHandler(cfg config) *server {
	s := &server{
		mux:      http.NewServeMux(),
		reg:      obs.NewRegistry(),
		cfg:      cfg,
		sessions: make(map[int]*storedSession),
		nextID:   1,
	}
	s.store = newDatasetStore(filepath.Join(cfg.dataDir, "datasets"), cfg.workers, s.reg)
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.HandleFunc("POST /generate", s.handleGenerate)
	s.mux.HandleFunc("GET /session/{id}", s.handleSession)
	s.mux.HandleFunc("GET /download/{id}/{lang}", s.handleDownload)
	s.mux.HandleFunc("GET /dot/{id}", s.handleDOT)
	// The campaign service: durable benchmark-as-a-service.
	s.mux.HandleFunc("POST /api/campaigns", s.handleCampaignSubmit)
	s.mux.HandleFunc("GET /api/campaigns", s.handleCampaignList)
	s.mux.HandleFunc("GET /api/campaigns/{id}", s.handleCampaignGet)
	s.mux.HandleFunc("DELETE /api/campaigns/{id}", s.handleCampaignCancel)
	s.mux.HandleFunc("GET /api/campaigns/{id}/events", s.handleCampaignEvents)
	s.mux.HandleFunc("GET /api/campaigns/{id}/artifact", s.handleCampaignArtifact)
	// Observability: a JSON metrics snapshot plus the standard pprof
	// profiling endpoints (mounted explicitly — the package's init-time
	// DefaultServeMux registration does not reach this private mux).
	s.mux.Handle("GET /debug/metrics", obs.Handler(s.reg))
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// recoverQueue empties the dataset store and opens the campaign queue,
// replaying its journal. Until this returns, campaignQueue sheds;
// afterwards the campaign endpoints serve normally.
func (s *server) recoverQueue() error {
	if err := s.store.reset(); err != nil {
		return err
	}
	q, err := jobqueue.Open(s.queueDir(), jobqueue.Options{
		MaxQueued:   s.cfg.maxQueued,
		TenantRate:  s.cfg.quotaRate,
		TenantBurst: s.cfg.quotaBurst,
		NoSync:      s.cfg.noSync,
		Obs:         obs.Scope{Metrics: s.reg},
	})
	if err != nil {
		return err
	}
	s.queueMu.Lock()
	s.queue = q
	s.queueMu.Unlock()
	return nil
}

// start launches the campaign worker pool under ctx; recovered campaigns
// resume immediately. Must be called after recoverQueue has succeeded.
func (s *server) start(ctx context.Context) {
	poolCtx, cancel := context.WithCancel(ctx)
	s.poolCancel = cancel
	s.pool = jobqueue.NewPool(poolCtx, s.queue, s.cfg.workers, s.runCampaign)
}

// drain performs the graceful-shutdown sequence: shed new submissions,
// interrupt and release in-flight campaigns (checkpoints make the release
// cheap), wait for the workers, close the queue (which ends every open
// event stream) and its journal. Safe to call while the queue is still
// recovering (nothing to drain then).
func (s *server) drain() {
	s.queueMu.RLock()
	q := s.queue
	s.queueMu.RUnlock()
	if q == nil {
		return
	}
	q.Drain()
	if s.poolCancel != nil {
		s.poolCancel()
		s.pool.Wait()
	}
	q.Close()
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

var indexTmpl = template.Must(template.New("index").Parse(`<!doctype html>
<html><head><title>BETZE</title><style>
body { font-family: sans-serif; max-width: 48rem; margin: 2rem auto; }
fieldset { margin-bottom: 1rem; }
label { display: block; margin: .3rem 0; }
</style></head><body>
<h1>BETZE — Benchmark Generator</h1>
<p>Configure a random-explorer session over a dataset and generate an
exploratory query benchmark for JODA, MongoDB, jq and PostgreSQL.</p>
<form method="post" action="/generate">
<fieldset><legend>Dataset</legend>
<label>Synthetic source:
<select name="source">
  <option value="twitter">Twitter-like stream (heterogeneous, nested)</option>
  <option value="nobench">NoBench (shallow, sparse)</option>
  <option value="reddit">Reddit comments (flat, fixed schema)</option>
</select></label>
<label>Documents: <input name="docs" type="number" value="5000" min="100" max="1000000"></label>
<label>Or newline-delimited JSON file on the server:
<input name="file" type="text" placeholder="/path/to/data.json" size="40"></label>
</fieldset>
<fieldset><legend>Explorer</legend>
<label>Preset:
<select name="preset">
  <option value="novice">novice (&alpha;=0.5 &beta;=0.3 n=20)</option>
  <option value="intermediate" selected>intermediate (&alpha;=0.3 &beta;=0.2 n=10)</option>
  <option value="expert">expert (&alpha;=0.2 &beta;=0.05 n=5)</option>
</select></label>
<label>Seed: <input name="seed" type="number" value="123"></label>
<label>Queries (0 = preset default): <input name="queries" type="number" value="0" min="0" max="200"></label>
</fieldset>
<fieldset><legend>Options</legend>
<label><input type="checkbox" name="aggregate"> Aggregation queries</label>
<label><input type="checkbox" name="groupby"> &hellip; with GROUP BY</label>
<label><input type="checkbox" name="materialize"> Materialise intermediate datasets</label>
<label><input type="checkbox" name="transforms"> Transformation queries (implies materialise)</label>
<label><input type="checkbox" name="weighted"> Weighted paths (prefer attributes near the root)</label>
<label><input type="checkbox" name="verify" checked> Verify selectivities against the data (recommended)</label>
</fieldset>
<button type="submit">Generate session</button>
</form>
</body></html>`))

var sessionTmpl = template.Must(template.New("session").Parse(`<!doctype html>
<html><head><title>BETZE session {{.ID}}</title><style>
body { font-family: sans-serif; max-width: 64rem; margin: 2rem auto; }
pre { background: #f4f4f4; padding: .6rem; overflow-x: auto; }
.step { margin-bottom: .8rem; }
svg { border: 1px solid #ccc; background: #fff; }
.dl a { margin-right: 1rem; }
</style></head><body>
<h1>Session {{.ID}} — {{.Preset}} (seed {{.Seed}})</h1>
<p><a href="/">&larr; new session</a></p>
<h2>Dataset dependency graph</h2>
{{.SVG}}
<p class="dl"><a href="/dot/{{.ID}}">Graphviz DOT</a></p>
<h2>Queries</h2>
{{range .Queries}}<div class="step"><strong>{{.ID}}</strong> ({{.Docs}} docs)<pre>{{.Text}}</pre></div>{{end}}
<h2>Download</h2>
<p class="dl">{{range .Langs}}<a href="/download/{{$.ID}}/{{.}}">queries.{{.}}</a>{{end}}</p>
</body></html>`))

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := indexTmpl.Execute(w, nil); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// generateForm is the validated POST /generate input. Absent fields take
// the form defaults; present-but-invalid fields are rejected with a
// structured 400 naming the field.
type generateForm struct {
	docs    int
	seed    int64
	queries int
	source  datasets.Source // the synthetic family, unless file is set
	file    string
	preset  betze.Preset
}

// parseGenerateForm validates every field of the generation form.
func parseGenerateForm(r *http.Request) (generateForm, *fieldError) {
	f := generateForm{docs: 5000, preset: betze.Intermediate}
	if v := strings.TrimSpace(r.FormValue("docs")); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return f, &fieldError{"docs", fmt.Sprintf("not a number: %q", v)}
		}
		if n < 1 || n > 1_000_000 {
			return f, &fieldError{"docs", fmt.Sprintf("document count %d outside 1..1000000", n)}
		}
		f.docs = n
	}
	if v := strings.TrimSpace(r.FormValue("seed")); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return f, &fieldError{"seed", fmt.Sprintf("not a number: %q", v)}
		}
		f.seed = n
	}
	if v := strings.TrimSpace(r.FormValue("queries")); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return f, &fieldError{"queries", fmt.Sprintf("not a number: %q", v)}
		}
		if n < 0 || n > 200 {
			return f, &fieldError{"queries", fmt.Sprintf("query count %d outside 0..200", n)}
		}
		f.queries = n
	}
	source := r.FormValue("source")
	if source == "" {
		source = "twitter"
	}
	src, err := datasets.ByName(source, datasets.RedditOptions{})
	if err != nil {
		return f, &fieldError{"source", fmt.Sprintf("unknown source %q (twitter, nobench, reddit)", source)}
	}
	f.source = src
	f.file = strings.TrimSpace(r.FormValue("file"))
	if v := r.FormValue("preset"); v != "" {
		p, err := betze.PresetByName(v)
		if err != nil {
			return f, &fieldError{"preset", err.Error()}
		}
		f.preset = p
	}
	return f, nil
}

func (s *server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := r.ParseForm(); err != nil {
		s.badRequest(w, http.StatusBadRequest, &fieldError{Message: "parsing form: " + err.Error()})
		return
	}
	form, ferr := parseGenerateForm(r)
	if ferr != nil {
		s.badRequest(w, http.StatusBadRequest, ferr)
		return
	}
	var data *os.File
	if form.file != "" {
		if data, ferr = openDataset(form.file); ferr != nil {
			s.badRequest(w, http.StatusBadRequest, ferr)
			return
		}
		defer data.Close()
	}
	//lint:ignore determinism latency measurement feeds the ops histogram, not benchmark artifacts
	start := time.Now()
	stored, err := s.generate(r, form, data)
	s.reg.Histogram(obs.MWebGenerate).Observe(time.Since(start))
	if err != nil {
		s.reg.Counter(obs.MWebGenerateErrors).Inc()
		writeJSON(w, http.StatusBadRequest, apiError{Error: "generation failed: " + err.Error()})
		return
	}
	s.reg.Counter(obs.MWebSessionsGenerated).Inc()
	http.Redirect(w, r, fmt.Sprintf("/session/%d", stored.id), http.StatusSeeOther)
}

// openDataset opens the dataset file a form names. O_NONBLOCK keeps open(2)
// from waiting for a writer when the name is a FIFO, which would hang the
// request; anything but a regular file is refused.
func openDataset(path string) (*os.File, *fieldError) {
	f, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil, &fieldError{"file", err.Error()}
	}
	if fi, err := f.Stat(); err != nil || !fi.Mode().IsRegular() {
		f.Close()
		return nil, &fieldError{"file", fmt.Sprintf("%s is not a regular file", path)}
	}
	return f, nil
}

// generate builds the dataset (or analyzes data, the opened dataset file,
// when the form names one), runs the generator and translates the session
// into every language.
func (s *server) generate(r *http.Request, form generateForm, data *os.File) (*storedSession, error) {
	var stats *betze.Stats
	var backendDocs []betze.Value
	datasetName := ""
	if data != nil {
		st, err := betze.AnalyzeReader(form.file, data, betze.AnalyzeOptions{})
		if err != nil {
			return nil, err
		}
		stats = st
		datasetName = st.Name
	} else {
		backendDocs = form.source.Generate(form.docs, form.seed)
		stats = betze.AnalyzeValues(form.source.Name, backendDocs, betze.AnalyzeOptions{})
		datasetName = form.source.Name
	}

	opts := betze.Options{
		Preset:        form.preset,
		Seed:          form.seed,
		Queries:       form.queries,
		Aggregate:     r.FormValue("aggregate") != "",
		GroupBy:       r.FormValue("groupby") != "",
		Materialize:   r.FormValue("materialize") != "",
		Transforms:    r.FormValue("transforms") != "",
		WeightedPaths: r.FormValue("weighted") != "",
	}
	if opts.Transforms {
		opts.Materialize = true
		opts.Aggregate = false
	}
	if r.FormValue("verify") != "" && backendDocs != nil && !opts.Transforms {
		backend := betze.NewJODA(betze.JODAOptions{})
		backend.ImportValues(datasetName, backendDocs)
		defer backend.Close()
		opts.Backend = backend
	}
	session, err := betze.Generate(opts, stats)
	if err != nil {
		return nil, err
	}

	scripts := make(map[string]string)
	for _, lang := range betze.Languages() {
		scripts[lang.ShortName()] = betze.Script(lang, session.Queries)
	}
	stored := &storedSession{dataset: datasetName, session: session, scripts: scripts}
	s.mu.Lock()
	stored.id = s.nextID
	s.nextID++
	s.sessions[stored.id] = stored
	s.reg.Gauge(obs.MWebSessionsStored).Set(float64(len(s.sessions)))
	s.mu.Unlock()
	return stored, nil
}

func (s *server) lookup(r *http.Request) (*storedSession, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	stored, ok := s.sessions[id]
	return stored, ok
}

func (s *server) handleSession(w http.ResponseWriter, r *http.Request) {
	stored, ok := s.lookup(r)
	if !ok {
		http.NotFound(w, r)
		return
	}
	type queryView struct {
		ID   string
		Docs int64
		Text string
	}
	var queries []queryView
	for _, n := range stored.session.Nodes {
		if n.Query == nil {
			continue
		}
		queries = append(queries, queryView{ID: n.Query.ID, Docs: n.Count, Text: n.Query.String()})
	}
	var langs []string
	for _, l := range betze.Languages() {
		langs = append(langs, l.ShortName())
	}
	data := struct {
		ID      int
		Preset  string
		Seed    int64
		SVG     template.HTML
		Queries []queryView
		Langs   []string
	}{
		ID:      stored.id,
		Preset:  stored.session.Preset.Name,
		Seed:    stored.session.Seed,
		SVG:     template.HTML(sessionSVG(stored.session)),
		Queries: queries,
		Langs:   langs,
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := sessionTmpl.Execute(w, data); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *server) handleDownload(w http.ResponseWriter, r *http.Request) {
	stored, ok := s.lookup(r)
	if !ok {
		http.NotFound(w, r)
		return
	}
	lang := r.PathValue("lang")
	script, ok := stored.scripts[lang]
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=queries.%s", lang))
	fmt.Fprint(w, script)
}

func (s *server) handleDOT(w http.ResponseWriter, r *http.Request) {
	stored, ok := s.lookup(r)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz; charset=utf-8")
	fmt.Fprint(w, stored.session.DOT())
}

// sessionSVG renders the dependency graph as inline SVG: nodes laid out by
// derivation depth (columns) and creation order (rows), edges coloured like
// Fig. 3 (query brown, backtrack red, jump purple).
func sessionSVG(session *betze.Session) string {
	depth := make([]int, len(session.Nodes))
	maxDepth := 0
	rows := make([]int, len(session.Nodes))
	rowPerDepth := map[int]int{}
	for i, n := range session.Nodes {
		if n.Parent != nil {
			depth[i] = depth[n.Parent.ID] + 1
		}
		if depth[i] > maxDepth {
			maxDepth = depth[i]
		}
		rows[i] = rowPerDepth[depth[i]]
		rowPerDepth[depth[i]]++
	}
	maxRow := 0
	for _, r := range rowPerDepth {
		if r > maxRow {
			maxRow = r
		}
	}
	const (
		dx, dy   = 150, 70
		ox, oy   = 70, 40
		nodeW    = 120
		nodeH    = 34
		fontSize = 11
	)
	width := ox*2 + dx*maxDepth + nodeW
	height := oy*2 + dy*max(maxRow-1, 0) + nodeH
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`, width, height, width, height)
	sb.WriteString(`<defs><marker id="arrow" markerWidth="8" markerHeight="8" refX="7" refY="3" orient="auto"><path d="M0,0 L7,3 L0,6 z"/></marker></defs>`)
	cx := func(i int) int { return ox + depth[i]*dx + nodeW/2 }
	cy := func(i int) int { return oy + rows[i]*dy + nodeH/2 }
	colors := map[core.StepKind]string{
		core.StepExplore: "#8b5a2b",
		core.StepBack:    "#cc2222",
		core.StepJump:    "#8a2be2",
	}
	for _, st := range session.Steps {
		fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="1.5" marker-end="url(#arrow)"/>`,
			cx(st.From), cy(st.From), cx(st.To), cy(st.To), colors[st.Kind])
	}
	last := -1
	if len(session.Steps) > 0 {
		last = session.Steps[len(session.Steps)-1].To
	}
	for i, n := range session.Nodes {
		fill := "#add8e6"
		if n.Parent == nil {
			fill = "#ffa94d"
		}
		if i == last {
			fill = "#ff6b6b"
		}
		x, y := cx(i)-nodeW/2, cy(i)-nodeH/2
		fmt.Fprintf(&sb, `<rect x="%d" y="%d" width="%d" height="%d" rx="6" fill="%s" stroke="#555"/>`, x, y, nodeW, nodeH, fill)
		fmt.Fprintf(&sb, `<text x="%d" y="%d" text-anchor="middle" font-size="%d">%s</text>`,
			cx(i), cy(i)-2, fontSize, template.HTMLEscapeString(n.Name))
		fmt.Fprintf(&sb, `<text x="%d" y="%d" text-anchor="middle" font-size="%d" fill="#333">%d docs</text>`,
			cx(i), cy(i)+11, fontSize-2, n.Count)
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}
