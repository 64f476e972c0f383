package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/runlog"
)

const (
	webPackage = "github.com/joda-explore/betze/cmd/betze-web"
	// webWarmups campaigns run untimed before the served window opens.
	webWarmups = 2
	// webPoll is how often a client asks for its campaign's artifact.
	webPoll = 5 * time.Millisecond
	// webBursts is how many served bursts would fill the measuring window.
	// Bursts alternate with in-process repeats of the same campaign shape
	// that take as long, so about half of them are served.
	webBursts = 16
)

// webClients is the closed-loop client count: two, but never more
// load-generating connections than cores.
func webClients() int { return min(2, runtime.GOMAXPROCS(0)) }

// webServer is a betze-web child process.
type webServer struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	dataDir string
	stderr  bytes.Buffer
	exited  bool // the child has been waited for
}

// firstLine hands the first line written to it to a channel (buffered, so
// the send never blocks) and drops the rest: betze-web prints its address once
// on standard output. os/exec writes to it from one goroutine.
type firstLine struct {
	buf  []byte
	done bool
	line chan string
}

func (f *firstLine) Write(p []byte) (int, error) {
	if !f.done {
		f.buf = append(f.buf, p...)
		if i := bytes.IndexByte(f.buf, '\n'); i >= 0 {
			f.done = true
			f.line <- string(f.buf[:i])
		}
	}
	return len(p), nil
}

func buildWeb(bin string) error {
	out, err := exec.Command("go", "build", "-o", bin, webPackage).CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build %s: %w\n%s", webPackage, err, out)
	}
	return nil
}

var listenLine = regexp.MustCompile(`listening on (http://\S+)`)

// startWeb launches the server on a free port over a fresh data directory
// and waits until the campaign API stops answering 503 (journal recovery).
func startWeb(ctx context.Context, bin, dataDir string) (*webServer, error) {
	s := &webServer{dataDir: dataDir}
	s.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir,
		"-workers", "2", "-quota-rate", "1000", "-quota-burst", "1000")
	first := &firstLine{line: make(chan string, 1)}
	s.cmd.Stdout = first
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	select {
	case line := <-first.line:
		m := listenLine.FindStringSubmatch(line)
		if m == nil {
			s.kill()
			return nil, fmt.Errorf("betze-web: unexpected first line %q", line)
		}
		s.base = m[1]
	case <-time.After(20 * time.Second):
		s.kill()
		return nil, fmt.Errorf("betze-web did not print its address\n%s", s.stderr.String())
	}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(time.Millisecond) {
		status, _, err := s.get(ctx, "/api/campaigns")
		if err == nil && status == http.StatusOK {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("betze-web campaign API not ready: status %d, %v", status, err)
		}
	}
}

// kill ends a server that is still running; it is how error paths and a
// failed start leave no child behind.
func (s *webServer) kill() {
	if s == nil || s.exited {
		return
	}
	s.exited = true
	_ = s.cmd.Process.Kill() // already exited is fine
	_ = s.cmd.Wait()         // reap; the exit status of a killed child says nothing
}

// stop sends SIGTERM and waits: the server must drain, seal its journal and
// exit 0. A server that ignores the signal is killed after the grace period.
func (s *webServer) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	s.exited = true
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("betze-web after SIGTERM: %w\n%s", err, s.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("betze-web did not exit within 30 s of SIGTERM")
	}
}

var httpClient = &http.Client{Timeout: 30 * time.Second}

func (s *webServer) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (s *webServer) get(ctx context.Context, path string) (int, []byte, error) {
	return s.do(ctx, http.MethodGet, path, nil)
}

// campaignRun is one campaign as a client saw it.
type campaignRun struct {
	seed     int64 // the campaign's one session seed
	ack      time.Duration
	latency  time.Duration // POST sent until the artifact GET returned 200
	artifact []byte
}

// webRun is the served half of the web-campaign workload.
type webRun struct {
	p       *pipeline
	bin     string // the betze-web binary; every set-up round builds it again
	workDir string
	// srv is the server the campaigns go through, the first round's. The
	// later rounds' servers are stopped as soon as they are ready.
	srv    *webServer
	runs   []campaignRun
	served time.Duration // wall time of the bursts so far
	next   int64         // campaigns claimed so far
}

// round is web-campaign's part of a measuring round. When the in-process
// repeats have used as much time as the bursts served so far — so in the first
// round — it sets up, which here includes building betze-web and starting it
// on a fresh data directory, and serves a burst of campaigns.
func (w *webRun) round(ctx context.Context, m *windowRuns, window, inProcess time.Duration, tr *tracer, root span) error {
	if inProcess < w.served {
		return nil
	}
	var srv *webServer
	err := w.p.setup(m, func() (err error) {
		if err = buildWeb(w.bin); err != nil {
			return err
		}
		srv, err = startWeb(ctx, w.bin, filepath.Join(w.workDir, fmt.Sprintf("web-data-%d", len(m.setups))))
		return err
	})
	if err != nil {
		return err
	}
	if w.srv != nil {
		if err := srv.stop(); err != nil {
			return err
		}
	} else {
		w.srv = srv
		for k := 0; k < webWarmups; k++ {
			w.p.res.Attempted++
			if _, err := w.campaign(ctx, w.p.seed+1_000_000+int64(k), nil, span{}); err != nil {
				return fmt.Errorf("warm-up campaign: %w", err)
			}
		}
	}
	return w.burst(ctx, window/webBursts, tr, root)
}

// campaign submits one campaign and polls until its artifact is published.
func (w *webRun) campaign(ctx context.Context, seed int64, tr *tracer, parent span) (campaignRun, error) {
	run := campaignRun{seed: seed}
	engines := make([]string, len(sims))
	for i, sm := range sims {
		engines[i] = sm.campaign
	}
	spec, err := json.Marshal(map[string]any{
		"dataset": map[string]any{"source": w.p.def.Kind, "docs": w.p.docs, "seed": w.p.seed},
		"preset":  w.p.def.Preset.Name,
		"seeds":   []int64{seed},
		"engines": engines,
	})
	if err != nil {
		return run, err
	}
	sp := tr.start(parent, "campaign")
	defer func() { sp.end("seed", seed) }()

	start := time.Now()
	ssp := tr.start(sp, "submit")
	status, body, err := w.srv.do(ctx, http.MethodPost, "/api/campaigns", spec)
	run.ack = time.Since(start)
	ssp.end("status", status)
	if err != nil {
		return run, err
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if status != http.StatusAccepted || json.Unmarshal(body, &accepted) != nil || accepted.ID == "" {
		return run, fmt.Errorf("POST /api/campaigns: status %d: %s", status, body)
	}
	wsp := tr.start(sp, "wait")
	defer wsp.end("id", accepted.ID)
	for {
		status, body, err := w.srv.get(ctx, "/api/campaigns/"+accepted.ID+"/artifact")
		switch {
		case err != nil:
			return run, err
		case status == http.StatusOK:
			run.latency, run.artifact = time.Since(start), body
			return run, nil
		case status != http.StatusConflict: // 409 means not done yet
			return run, fmt.Errorf("GET artifact %s: status %d: %s", accepted.ID, status, body)
		}
		time.Sleep(webPoll)
	}
}

// burst runs the closed-loop clients for d, each at least one campaign.
// Campaign i explores with session seed seed+i, the seed of the in-process
// repeats' session i.
func (w *webRun) burst(ctx context.Context, d time.Duration, tr *tracer, root span) error {
	var (
		mu  sync.Mutex // guards w.next, w.runs, err and the result's counters
		wg  sync.WaitGroup
		err error
	)
	claim := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		w.next++
		return w.p.seed + w.next - 1
	}
	start := time.Now()
	for c := 0; c < webClients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n == 0 || time.Since(start) < d; n++ {
				run, cerr := w.campaign(ctx, claim(), tr, root)
				mu.Lock()
				w.p.res.Attempted++
				if cerr != nil {
					w.p.res.fail("campaign seed %d: %v", run.seed, cerr)
					err = cerr
				} else {
					w.runs = append(w.runs, run)
				}
				mu.Unlock()
				if cerr != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	w.served += time.Since(start)
	return err
}

// finish ends the served half: the campaign metrics (untraced) or the
// server's own (traced), then SIGTERM — the server must drain and exit 0 —
// and the sealed journal's counts.
func (w *webRun) finish(ctx context.Context, traced bool) error {
	if !traced {
		w.endToEnd()
	} else if err := w.serverMetrics(ctx); err != nil {
		return err
	}
	w.p.res.Attempted++
	if err := w.srv.stop(); err != nil {
		w.p.res.fail("%v", err)
	}
	if traced {
		return w.journalMetrics(len(w.runs) + webWarmups)
	}
	return nil
}

// artifact is the part of a published campaign artifact the gate reads.
type artifact struct {
	Units []struct {
		Engine    string `json:"engine"`
		Completed int    `json:"completed"`
		Error     string `json:"error"`
		Queries   []struct {
			ID       string `json:"id"`
			Matched  int64  `json:"matched"`
			Returned int64  `json:"returned"`
			Error    string `json:"error"`
		} `json:"queries"`
	} `json:"units"`
}

// verify is the artifact gate: every artifact has one unit per engine, no
// error, every query of the preset completed, and per query the same matched
// and returned counts on every engine. There is no reference evaluator here:
// the artifact does not carry the query text, and the server's session cannot
// be regenerated outside it (see pipeline.stats).
func (w *webRun) verify() {
	for _, run := range w.runs {
		w.p.res.Attempted++
		if err := verifyArtifact(run.artifact, w.p.def.Preset.Queries); err != nil {
			w.p.res.fail("campaign seed %d: %v", run.seed, err)
		}
	}
}

func verifyArtifact(data []byte, queries int) error {
	var a artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if len(a.Units) != len(sims) {
		return fmt.Errorf("%d units, want %d", len(a.Units), len(sims))
	}
	for _, u := range a.Units {
		if u.Error != "" || u.Completed != queries || len(u.Queries) != queries {
			return fmt.Errorf("unit %s: error %q, completed %d of %d", u.Engine, u.Error, u.Completed, queries)
		}
		for i, q := range u.Queries {
			first := a.Units[0].Queries[i]
			if q.Error != "" || q.Matched != first.Matched || q.Returned != first.Returned {
				return fmt.Errorf("unit %s %s: matched/returned %d/%d, %s has %d/%d, error %q",
					u.Engine, q.ID, q.Matched, q.Returned, a.Units[0].Engine, first.Matched, first.Returned, q.Error)
			}
		}
	}
	return nil
}

// endToEnd derives the campaign metrics of the untraced run.
func (w *webRun) endToEnd() {
	res := w.p.res
	var latency []float64
	for _, r := range w.runs {
		latency = append(latency, r.latency.Seconds())
	}
	res.setPercentile("pipeline_s", latency, 0.5)
	res.setPercentile("campaign_p80_s", latency, 0.8)
	res.set("campaigns_per_min", 60*float64(len(w.runs))/w.served.Seconds(), len(w.runs))
}

// serverMetrics reads the server's own view from /debug/metrics; call it
// before the server stops.
func (w *webRun) serverMetrics(ctx context.Context) error {
	res := w.p.res
	status, body, err := w.srv.get(ctx, "/debug/metrics")
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /debug/metrics: status %d, %v", status, err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("/debug/metrics: %w", err)
	}
	var ack, latency []float64
	for _, r := range w.runs {
		ack = append(ack, 1e3*r.ack.Seconds())
		latency = append(latency, r.latency.Seconds())
	}
	res.setPercentile("web.submit_ack_p50_ms", ack, 0.5)
	run := snap.Histograms[obs.MWebCampaignRun]
	res.set("web.campaign_run_p50_s", run.P50.Seconds(), int(run.Count))
	// Both sums cover the timed campaigns and the warm-ups' queue waits; the
	// warm-ups wait on an idle pool, which adds next to nothing.
	wait := snap.Histograms[obs.MQueueWait]
	res.set("web.queue_wait_share", ratio(wait.Sum.Seconds(), sum(latency)), int(wait.Count))
	return nil
}

// journalMetrics reads the sealed queue journal after the server has exited.
func (w *webRun) journalMetrics(campaigns int) error {
	dir := filepath.Join(w.srv.dataDir, "queue")
	rec, err := runlog.Recover(dir)
	if err != nil {
		return fmt.Errorf("reading the queue journal: %w", err)
	}
	size, err := dirBytes(dir)
	if err != nil {
		return err
	}
	n := float64(campaigns)
	w.p.res.set("web.runlog_appends_per_campaign", float64(len(rec.Records))/n, campaigns)
	w.p.res.set("web.journal_bytes_per_campaign", float64(size)/n, campaigns)
	return nil
}
