package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/harness"
	"github.com/joda-explore/betze/internal/jobqueue"
)

// TestCampaignEndpointsShedDuringRecovery: while the journal is still being
// replayed the campaign endpoints must answer 503 with a Retry-After header
// and a structured body — not hang, not 404, not a nil-pointer panic — and
// the same endpoints must serve normally once recovery completes.
func TestCampaignEndpointsShedDuringRecovery(t *testing.T) {
	srv := newServerHandler(testConfig(t))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	endpoints := []struct {
		method, path string
	}{
		{http.MethodPost, "/api/campaigns"},
		{http.MethodGet, "/api/campaigns"},
		{http.MethodGet, "/api/campaigns/c000001"},
		{http.MethodDelete, "/api/campaigns/c000001"},
		{http.MethodGet, "/api/campaigns/c000001/events"},
		{http.MethodGet, "/api/campaigns/c000001/artifact"},
	}
	for _, ep := range endpoints {
		var body *strings.Reader
		if ep.method == http.MethodPost {
			body = strings.NewReader(smallCampaign())
		} else {
			body = strings.NewReader("")
		}
		req, err := http.NewRequest(ep.method, ts.URL+ep.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s during recovery: status %d, want 503", ep.method, ep.path, resp.StatusCode)
		}
		ra := resp.Header.Get("Retry-After")
		if ra == "" {
			t.Fatalf("%s %s during recovery: no Retry-After header", ep.method, ep.path)
		}
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Fatalf("%s %s: Retry-After %q is not a positive integer", ep.method, ep.path, ra)
		}
		var ae apiError
		if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil {
			t.Fatalf("%s %s: shed body not structured JSON: %v", ep.method, ep.path, err)
		}
		resp.Body.Close()
		if !strings.Contains(ae.Error, "recovery") {
			t.Fatalf("%s %s: shed body %q does not name recovery", ep.method, ep.path, ae.Error)
		}
	}

	// The UI side is independent of the queue and must serve throughout.
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index during recovery: status %d", resp.StatusCode)
	}

	// Recovery completes: submissions are admitted again.
	if err := srv.recoverQueue(); err != nil {
		t.Fatal(err)
	}
	srv.start(t.Context())
	t.Cleanup(srv.drain)
	sub := postCampaign(t, ts, smallCampaign(), nil)
	if sub.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after recovery: status %d, want 202", sub.StatusCode)
	}
	snap := decodeSnapshot(t, sub)
	waitCampaign(t, ts, snap.ID, jobqueue.StateDone)
}

// TestUnitCheckpointShapeIsStable: a unit checkpoint written before units
// became harness.SessionRecord values (by the former unitResult type)
// decodes and re-marshals byte for byte, so a campaign checkpointed by the
// earlier server resumes into the same artifact.
func TestUnitCheckpointShapeIsStable(t *testing.T) {
	for _, checkpoint := range []string{
		`{"engine":"joda","seed":1,"import":{"docs":300,"bytes":51234,"duration_us":301},` +
			`"queries":[{"id":"q1","scanned":300,"matched":120,"returned":120,"duration_us":541},` +
			`{"id":"q2","scanned":0,"matched":0,"returned":0,"duration_us":0,` +
			`"error":"executing q2 (attempt 1): faultsim: injected transient fault","skipped":true}],` +
			`"completed":1,"skipped":1,"retries":3}`,
		`{"engine":"postgres","seed":2,"import":{"docs":0,"bytes":0,"duration_us":0},"queries":null,` +
			`"completed":0,"skipped":0,"retries":0,"error":"import: pgsim: unsupported Unicode escape sequence"}`,
	} {
		var u harness.SessionRecord
		if err := json.Unmarshal([]byte(checkpoint), &u); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != checkpoint {
			t.Errorf("checkpoint changed in a round trip:\n got %s\nwant %s", again, checkpoint)
		}
	}
}
