package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/joda-explore/betze"
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

// TestCampaignRefusesForeignCheckpoint: a unit checkpoint that does not
// strictly decode as a SessionRecord — a field this version does not write,
// or the record shape before SessionRecord — fails the campaign with an
// error naming its key, instead of being published as a measured unit.
func TestCampaignRefusesForeignCheckpoint(t *testing.T) {
	for _, payload := range []string{
		`{"engine":"joda","seed":1,"alien":1}`,
		`{"engine":"joda","import":{"Docs":8,"Bytes":900,"StoredBytes":700,"Duration":9000},` +
			`"query_times":[1000,2000],"total":3000,"wall":12000}`,
	} {
		srv, err := newServer(testConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		var spec campaignSpec
		if err := json.Unmarshal([]byte(smallCampaign()), &spec); err != nil {
			t.Fatal(err)
		}
		key := firstUnitKey(t, srv, spec)
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := srv.queue.Submit("default", body)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.queue.Checkpoint(snap.ID, key, json.RawMessage(payload)); err != nil {
			t.Fatal(err)
		}
		srv.start(t.Context())
		t.Cleanup(srv.drain)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		failed := waitCampaign(t, ts, snap.ID, jobqueue.StateFailed)
		if !strings.Contains(failed.Error, "checkpoint "+key) {
			t.Errorf("checkpoint %s: campaign error %q does not name key %s", payload, failed.Error, key)
		}
		if _, err := os.Stat(srv.artifactPath(snap.ID)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("checkpoint %s: artifact published (stat: %v)", payload, err)
		}
	}
}

// firstUnitKey is the checkpoint key of spec's first (seed, engine) unit on
// srv, whose store then holds the dataset.
func firstUnitKey(t *testing.T, srv *server, spec campaignSpec) string {
	t.Helper()
	ds, err := srv.store.acquire(t.Context(), spec.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.store.release(ds)
	preset, err := betze.PresetByName(spec.Preset)
	if err != nil {
		t.Fatal(err)
	}
	seed := spec.Seeds[0]
	session, err := betze.Generate(betze.Options{Preset: preset, Seed: seed, Queries: spec.Queries}, ds.stats)
	if err != nil {
		t.Fatal(err)
	}
	data := harness.Import{Name: ds.stats.Name, Path: ds.path}
	return spec.unit(seed, spec.Engines[0], data, session.Queries, "").Key()
}
