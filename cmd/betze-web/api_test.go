package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/jobqueue"
)

// smallCampaign is a spec that runs in well under a second.
func smallCampaign() string {
	return `{
		"dataset": {"source": "twitter", "docs": 300, "seed": 1},
		"preset": "expert",
		"seeds": [1],
		"engines": ["joda"]
	}`
}

func postCampaign(t *testing.T, ts *httptest.Server, body string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/campaigns", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeSnapshot(t *testing.T, resp *http.Response) jobqueue.Snapshot {
	t.Helper()
	defer resp.Body.Close()
	var snap jobqueue.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// waitCampaign polls the status endpoint until the campaign reaches want.
func waitCampaign(t *testing.T, ts *httptest.Server, id string, want jobqueue.State) jobqueue.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var snap jobqueue.Snapshot
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/api/campaigns/" + id)
		if err != nil {
			t.Fatal(err)
		}
		snap = decodeSnapshot(t, resp)
		if snap.State == want {
			return snap
		}
		if snap.State.Terminal() {
			t.Fatalf("campaign %s terminal in %s (%s), want %s", id, snap.State, snap.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %s stuck in %s, want %s", id, snap.State, want)
	return snap
}

func TestCampaignLifecycle(t *testing.T) {
	_, ts := startService(t, testConfig(t))
	resp := postCampaign(t, ts, smallCampaign(), nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/api/campaigns/") {
		t.Fatalf("Location = %q", loc)
	}
	snap := decodeSnapshot(t, resp)
	if snap.ID == "" || snap.Tenant != "default" {
		t.Fatalf("snapshot = %+v", snap)
	}

	done := waitCampaign(t, ts, snap.ID, jobqueue.StateDone)
	if done.Checkpoints != 1 {
		t.Errorf("checkpoints = %d, want 1 (one seed, one engine)", done.Checkpoints)
	}

	// The published artifact is complete and well-formed.
	aresp, err := http.Get(ts.URL + "/api/campaigns/" + snap.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("artifact status %d", aresp.StatusCode)
	}
	var artifact campaignArtifact
	if err := json.NewDecoder(aresp.Body).Decode(&artifact); err != nil {
		t.Fatal(err)
	}
	if artifact.Campaign != snap.ID || len(artifact.Units) != 1 {
		t.Fatalf("artifact = %s with %d units", artifact.Campaign, len(artifact.Units))
	}
	u := artifact.Units[0]
	if u.Engine != "joda" || u.Import.Docs != 300 || u.Completed == 0 || u.Error != "" {
		t.Fatalf("unit = %+v", u)
	}

	// The campaign appears in the listing.
	lresp, err := http.Get(ts.URL + "/api/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list []jobqueue.Snapshot
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != snap.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestCampaignValidation(t *testing.T) {
	_, ts := startService(t, testConfig(t))
	cases := []struct {
		name, body, wantField string
	}{
		{"bad source", `{"dataset":{"source":"oracle","docs":300,"seed":1},"preset":"expert","seeds":[1],"engines":["joda"]}`, "dataset.source"},
		{"docs too small", `{"dataset":{"source":"twitter","docs":5,"seed":1},"preset":"expert","seeds":[1],"engines":["joda"]}`, "dataset.docs"},
		{"bad preset", `{"dataset":{"source":"twitter","docs":300,"seed":1},"preset":"wizard","seeds":[1],"engines":["joda"]}`, "preset"},
		{"no seeds", `{"dataset":{"source":"twitter","docs":300,"seed":1},"preset":"expert","seeds":[],"engines":["joda"]}`, "seeds"},
		{"bad engine", `{"dataset":{"source":"twitter","docs":300,"seed":1},"preset":"expert","seeds":[1],"engines":["oracle"]}`, "engines"},
		{"repeated seed", `{"dataset":{"source":"nobench","docs":300,"seed":1},"preset":"expert","seeds":[1,1],"engines":["joda"]}`, "seeds"},
		{"repeated engine", `{"dataset":{"source":"nobench","docs":300,"seed":1},"preset":"expert","seeds":[1],"engines":["joda","joda"]}`, "engines"},
		{"unknown field", `{"dataset":{"source":"twitter","docs":300,"seed":1},"preset":"expert","seeds":[1],"engines":["joda"],"frobnicate":1}`, ""},
		{"not json", `]]]`, ""},
	}
	for _, tc := range cases {
		resp := postCampaign(t, ts, tc.body, nil)
		var apiErr struct {
			Error  string      `json:"error"`
			Detail *fieldError `json:"detail"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatalf("%s: error body not JSON: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		if apiErr.Error == "" {
			t.Errorf("%s: empty structured error", tc.name)
		}
		if tc.wantField != "" && (apiErr.Detail == nil || apiErr.Detail.Field != tc.wantField) {
			t.Errorf("%s: detail = %+v, want field %q", tc.name, apiErr.Detail, tc.wantField)
		}
	}

	// Oversized body: 413, not an unbounded buffer.
	big := fmt.Sprintf(`{"dataset":{"source":"twitter","docs":300,"seed":1},"preset":"expert","seeds":[1],"engines":["joda"],"pad":%q}`,
		strings.Repeat("x", maxBodyBytes+1))
	resp := postCampaign(t, ts, big, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestCampaignAdmissionShed: with no workers claiming, the bounded queue
// fills and sheds with 503; a throttled tenant sheds with 429; both carry
// Retry-After. No accepted campaign is lost.
func TestCampaignAdmissionShed(t *testing.T) {
	cfg := testConfig(t)
	cfg.maxQueued = 2
	cfg.quotaRate = 0.001
	cfg.quotaBurst = 2
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.queue.Close() })
	ts := httptest.NewServer(srv) // no start: workers never claim
	t.Cleanup(ts.Close)

	// Tenant "a" has burst 2: one accepted, then the depth bound has room
	// for one more from tenant "b".
	r1 := postCampaign(t, ts, smallCampaign(), map[string]string{"X-Tenant": "a"})
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", r1.StatusCode)
	}
	accepted := decodeSnapshot(t, r1)
	r2 := postCampaign(t, ts, smallCampaign(), map[string]string{"X-Tenant": "b"})
	r2.Body.Close()
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", r2.StatusCode)
	}

	// Queue now at depth 2 = maxQueued: overload sheds 503 + Retry-After.
	r3 := postCampaign(t, ts, smallCampaign(), map[string]string{"X-Tenant": "c"})
	r3.Body.Close()
	if r3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: %d, want 503", r3.StatusCode)
	}
	if ra := r3.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("503 Retry-After = %q", ra)
	}

	// Accepted campaigns are still there — load shedding lost nothing.
	resp, err := http.Get(ts.URL + "/api/campaigns/" + accepted.ID)
	if err != nil {
		t.Fatal(err)
	}
	snap := decodeSnapshot(t, resp)
	if snap.State != jobqueue.StateQueued {
		t.Fatalf("accepted campaign state = %s", snap.State)
	}
}

// TestCampaignQuota429: a tenant past its token bucket gets 429 with
// Retry-After while other tenants are unaffected.
func TestCampaignQuota429(t *testing.T) {
	cfg := testConfig(t)
	cfg.quotaRate = 0.001
	cfg.quotaBurst = 1
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.queue.Close() })
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	r1 := postCampaign(t, ts, smallCampaign(), map[string]string{"X-Tenant": "a"})
	r1.Body.Close()
	if r1.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d", r1.StatusCode)
	}
	r2 := postCampaign(t, ts, smallCampaign(), map[string]string{"X-Tenant": "a"})
	r2.Body.Close()
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: %d, want 429", r2.StatusCode)
	}
	if ra := r2.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 Retry-After = %q", ra)
	}
	r3 := postCampaign(t, ts, smallCampaign(), map[string]string{"X-Tenant": "b"})
	r3.Body.Close()
	if r3.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant: %d, want 202", r3.StatusCode)
	}
}

func TestCampaignCancel(t *testing.T) {
	cfg := testConfig(t)
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.queue.Close() })
	ts := httptest.NewServer(srv) // no workers: the campaign stays queued
	t.Cleanup(ts.Close)

	snap := decodeSnapshot(t, postCampaign(t, ts, smallCampaign(), nil))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/campaigns/"+snap.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	got, err := http.Get(ts.URL + "/api/campaigns/" + snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if s := decodeSnapshot(t, got); s.State != jobqueue.StateCancelled {
		t.Fatalf("state after cancel = %s", s.State)
	}
	// Cancelling a terminal campaign: 409.
	resp2, err := http.DefaultClient.Do(req.Clone(t.Context()))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel status %d, want 409", resp2.StatusCode)
	}
	// Unknown campaign: 404.
	req404, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/campaigns/c999999", nil)
	resp3, err := http.DefaultClient.Do(req404)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cancel status %d, want 404", resp3.StatusCode)
	}
}

// TestCampaignEventsSSE: the events endpoint streams the campaign's journal
// records as SSE — replayed history first, then live transitions, ending
// with the terminal record.
func TestCampaignEventsSSE(t *testing.T) {
	_, ts := startService(t, testConfig(t))
	snap := decodeSnapshot(t, postCampaign(t, ts, smallCampaign(), nil))

	resp, err := http.Get(ts.URL + "/api/campaigns/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
	}
	want := map[string]bool{"submitted": false, "claimed": false, "running": false, "checkpoint": false, "done": false}
	for _, e := range events {
		if _, ok := want[e]; ok {
			want[e] = true
		}
	}
	for e, seen := range want {
		if !seen {
			t.Errorf("SSE stream missing %q event (got %v)", e, events)
		}
	}
	if events[len(events)-1] != "done" {
		t.Errorf("stream did not end on the terminal record: %v", events)
	}

	// Unknown campaign: 404, not an empty stream.
	r404, err := http.Get(ts.URL + "/api/campaigns/c999999/events")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown campaign events status %d", r404.StatusCode)
	}
}

// TestCampaignChaos: campaigns complete under injected engine faults — the
// resilient executor absorbs them — and the artifact still publishes.
func TestCampaignChaos(t *testing.T) {
	_, ts := startService(t, testConfig(t))
	spec := `{
		"dataset": {"source": "nobench", "docs": 400, "seed": 3},
		"preset": "expert",
		"seeds": [1, 2],
		"engines": ["joda", "jq"],
		"fault_rate": 0.2, "fault_seed": 7
	}`
	snap := decodeSnapshot(t, postCampaign(t, ts, spec, nil))
	done := waitCampaign(t, ts, snap.ID, jobqueue.StateDone)
	if done.Checkpoints != 4 {
		t.Errorf("checkpoints = %d, want 4 (2 seeds x 2 engines)", done.Checkpoints)
	}
	aresp, err := http.Get(ts.URL + "/api/campaigns/" + snap.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Fatalf("artifact status %d", aresp.StatusCode)
	}
	var artifact campaignArtifact
	if err := json.NewDecoder(aresp.Body).Decode(&artifact); err != nil {
		t.Fatal(err)
	}
	if len(artifact.Units) != 4 {
		t.Fatalf("%d units, want 4", len(artifact.Units))
	}
}

// TestSlowlorisTimeout: the production http.Server configuration must cut a
// client that sends its header one byte at a time — the regression guard
// for the server timeouts satellite.
func TestSlowlorisTimeout(t *testing.T) {
	srv, err := newServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.queue.Close() })
	hs := newHTTPServer(srv)
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.WriteTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("production server missing timeouts: %+v", hs)
	}
	hs.ReadHeaderTimeout = 200 * time.Millisecond // accelerate the test
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A slowloris client: start a request, never finish the header.
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\nX-Slow: ")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	start := time.Now()
	n, rerr := conn.Read(buf)
	elapsed := time.Since(start)
	// The server must close the connection (EOF or 408), not hold it open
	// until our read deadline.
	if elapsed >= 4*time.Second {
		t.Fatalf("connection still open after %v: n=%d err=%v", elapsed, n, rerr)
	}
	if n > 0 && !bytes.Contains(buf[:n], []byte("408")) {
		t.Fatalf("unexpected response %q", buf[:n])
	}
}
