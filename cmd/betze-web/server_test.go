package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// testConfig returns a small, fsync-free service configuration rooted in a
// per-test temp directory.
func testConfig(t *testing.T) config {
	t.Helper()
	return config{
		dataDir:    t.TempDir(),
		workers:    2,
		maxQueued:  16,
		quotaRate:  1000,
		quotaBurst: 1000,
		noSync:     true,
	}
}

// startService builds a running server (queue recovered, workers started)
// torn down in reverse order: HTTP first, then the graceful drain.
func startService(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.start(t.Context())
	t.Cleanup(srv.drain)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func startTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	_, ts := startService(t, testConfig(t))
	return ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestIndexPage(t *testing.T) {
	ts := startTestServer(t)
	code, body := get(t, ts.URL+"/")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, frag := range []string{"BETZE", "novice", "intermediate", "expert", "Generate session", "Weighted paths"} {
		if !strings.Contains(body, frag) {
			t.Errorf("index missing %q", frag)
		}
	}
}

// generateSession posts the form and follows the redirect, returning the
// session page URL.
func generateSession(t *testing.T, ts *httptest.Server, form url.Values) string {
	t.Helper()
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := client.PostForm(ts.URL+"/generate", form)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSeeOther {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("generate status %d: %s", resp.StatusCode, body)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, "/session/") {
		t.Fatalf("redirect to %q", loc)
	}
	return ts.URL + loc
}

func TestGenerateAndViewSession(t *testing.T) {
	ts := startTestServer(t)
	sessionURL := generateSession(t, ts, url.Values{
		"source": {"twitter"},
		"docs":   {"800"},
		"preset": {"expert"},
		"seed":   {"123"},
		"verify": {"on"},
	})
	code, body := get(t, sessionURL)
	if code != http.StatusOK {
		t.Fatalf("session status %d", code)
	}
	for _, frag := range []string{"expert", "seed 123", "<svg", "q1", "q5", "queries.joda", "queries.postgres"} {
		if !strings.Contains(body, frag) {
			t.Errorf("session page missing %q", frag)
		}
	}
}

func TestDownloadsAndDOT(t *testing.T) {
	ts := startTestServer(t)
	sessionURL := generateSession(t, ts, url.Values{
		"source": {"nobench"}, "docs": {"600"}, "preset": {"expert"}, "seed": {"7"}, "verify": {"on"},
	})
	id := sessionURL[strings.LastIndex(sessionURL, "/")+1:]
	for lang, frag := range map[string]string{
		"joda":     "LOAD NoBench",
		"mongodb":  "db.NoBench.aggregate",
		"jq":       "jq -c -n",
		"postgres": "FROM NoBench",
	} {
		code, body := get(t, ts.URL+"/download/"+id+"/"+lang)
		if code != http.StatusOK {
			t.Fatalf("%s download status %d", lang, code)
		}
		if !strings.Contains(body, frag) {
			t.Errorf("%s download missing %q:\n%.200s", lang, frag, body)
		}
	}
	code, body := get(t, ts.URL+"/dot/"+id)
	if code != http.StatusOK || !strings.Contains(body, "digraph session") {
		t.Errorf("dot endpoint: %d, %.80s", code, body)
	}
}

func TestGenerateWithTransforms(t *testing.T) {
	ts := startTestServer(t)
	sessionURL := generateSession(t, ts, url.Values{
		"source": {"twitter"}, "docs": {"800"}, "preset": {"expert"}, "seed": {"9"},
		"transforms": {"on"}, "verify": {"on"}, // verify must be ignored with transforms
	})
	code, body := get(t, sessionURL)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "STORE") {
		t.Errorf("transform session not materialised:\n%.300s", body)
	}
}

func TestNotFoundAndErrors(t *testing.T) {
	ts := startTestServer(t)
	if code, _ := get(t, ts.URL+"/session/999"); code != http.StatusNotFound {
		t.Errorf("unknown session status %d", code)
	}
	if code, _ := get(t, ts.URL+"/download/999/joda"); code != http.StatusNotFound {
		t.Errorf("unknown download status %d", code)
	}
	resp, err := http.PostForm(ts.URL+"/generate", url.Values{"file": {"/no/such/file.json"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing dataset file status %d", resp.StatusCode)
	}
}

// TestGenerateRefusesNonRegularFile: a form naming a FIFO or a directory is
// refused with a 400 on field file. Opening a FIFO for reading blocks until
// a writer appears, so a server that simply opened it would never answer.
func TestGenerateRefusesNonRegularFile(t *testing.T) {
	ts := startTestServer(t)
	fifo := filepath.Join(t.TempDir(), "data.fifo")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}
	// Release a handler stuck in open(2), so that a failing run can end.
	t.Cleanup(func() {
		if w, err := os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
			w.Close()
		}
	})
	client := &http.Client{Timeout: 5 * time.Second}
	for _, file := range []string{fifo, t.TempDir()} {
		resp, err := client.PostForm(ts.URL+"/generate", url.Values{"file": {file}})
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		var ae apiError
		err = json.NewDecoder(resp.Body).Decode(&ae)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || ae.Field == nil || ae.Field.Field != "file" {
			t.Errorf("%s: status %d, body %+v (%v); want 400 on field file", file, resp.StatusCode, ae, err)
		}
	}
}

func TestMetricsAndPprofEndpoints(t *testing.T) {
	ts := startTestServer(t)
	generateSession(t, ts, url.Values{
		"source": {"twitter"}, "docs": {"600"}, "preset": {"expert"}, "seed": {"3"}, "verify": {"on"},
	})
	code, body := get(t, ts.URL+"/debug/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	var snap struct {
		Counters   map[string]int64          `json:"counters"`
		Gauges     map[string]float64        `json:"gauges"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("metrics endpoint not JSON: %v\n%s", err, body)
	}
	if snap.Counters["web.sessions_generated"] != 1 {
		t.Errorf("sessions_generated = %d, want 1", snap.Counters["web.sessions_generated"])
	}
	if snap.Gauges["web.sessions_stored"] != 1 {
		t.Errorf("sessions_stored = %v, want 1", snap.Gauges["web.sessions_stored"])
	}
	if _, ok := snap.Histograms["web.generate"]; !ok {
		t.Errorf("web.generate histogram missing: %v", snap.Histograms)
	}
	if code, body := get(t, ts.URL+"/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Errorf("pprof index: %d, %.80s", code, body)
	}
}

func TestSameSeedSameScripts(t *testing.T) {
	ts := startTestServer(t)
	form := url.Values{"source": {"reddit"}, "docs": {"500"}, "preset": {"expert"}, "seed": {"42"}, "verify": {"on"}}
	u1 := generateSession(t, ts, form)
	u2 := generateSession(t, ts, form)
	id1 := u1[strings.LastIndex(u1, "/")+1:]
	id2 := u2[strings.LastIndex(u2, "/")+1:]
	_, s1 := get(t, ts.URL+"/download/"+id1+"/joda")
	_, s2 := get(t, ts.URL+"/download/"+id2+"/joda")
	if s1 != s2 {
		t.Errorf("same seed produced different scripts")
	}
}
