package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/obs"
)

// storeCampaign is a small campaign on the dataset of the given seed.
func storeCampaign(datasetSeed string) string {
	return `{
		"dataset": {"source": "nobench", "docs": 300, "seed": ` + datasetSeed + `},
		"preset": "expert",
		"seeds": [1, 2],
		"engines": ["joda", "jq"]
	}`
}

// runCampaigns submits the specs at once and waits for every campaign to
// finish; it returns their artifacts in submission order.
func runCampaigns(t *testing.T, srv *server, ts *httptest.Server, specs ...string) [][]byte {
	t.Helper()
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/campaigns", "application/json", strings.NewReader(spec))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var snap jobqueue.Snapshot
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil || resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit: status %d, %v", resp.StatusCode, err)
				return
			}
			ids[i] = snap.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	artifacts := make([][]byte, len(ids))
	for i, id := range ids {
		waitCampaign(t, ts, id, jobqueue.StateDone)
		data, err := os.ReadFile(srv.artifactPath(id))
		if err != nil {
			t.Fatal(err)
		}
		// The campaign ID is the one field that depends on the order of
		// submission; blank it so artifacts compare by content.
		artifacts[i] = bytes.Replace(data, []byte(`"campaign": "`+id+`"`), []byte(`"campaign": ""`), 1)
	}
	return artifacts
}

// coldArtifact runs spec as the only campaign of a fresh server, whose
// dataset store is empty: the artifact of an uncached run.
func coldArtifact(t *testing.T, spec string) []byte {
	t.Helper()
	srv, ts := startService(t, testConfig(t))
	return runCampaigns(t, srv, ts, spec)[0]
}

func materializations(srv *server) int64 {
	return srv.reg.Counter(obs.MWebDatasetsMaterialized).Value()
}

func storedFiles(t *testing.T, srv *server) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(srv.store.dir, "*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// Four campaigns on one dataset, submitted at once to four workers,
// materialise it once, and each publishes what an uncached run publishes.
func TestCampaignsShareOneDataset(t *testing.T) {
	spec := storeCampaign("1")
	want := coldArtifact(t, spec)
	cfg := testConfig(t)
	cfg.workers = 4
	srv, ts := startService(t, cfg)
	for i, got := range runCampaigns(t, srv, ts, spec, spec, spec, spec) {
		if !bytes.Equal(got, want) {
			t.Errorf("campaign %d: artifact differs from the uncached run's (%d vs %d bytes)", i+1, len(got), len(want))
		}
	}
	if n := materializations(srv); n != 1 {
		t.Errorf("%d materialisations, want 1", n)
	}
	if files := storedFiles(t, srv); len(files) != 1 {
		t.Errorf("store holds %v, want one file", files)
	}
}

// Specs that differ only in the dataset seed are two datasets, and sharing a
// server changes neither campaign's artifact.
func TestDatasetSeedIsPartOfTheKey(t *testing.T) {
	specs := []string{storeCampaign("1"), storeCampaign("2")}
	srv, ts := startService(t, testConfig(t))
	got := runCampaigns(t, srv, ts, specs...)
	for i, spec := range specs {
		if want := coldArtifact(t, spec); !bytes.Equal(got[i], want) {
			t.Errorf("dataset seed %d: artifact differs from the uncached run's", i+1)
		}
	}
	if n := materializations(srv); n != 2 {
		t.Errorf("%d materialisations, want 2", n)
	}
	if files := storedFiles(t, srv); len(files) != 2 {
		t.Errorf("store holds %v, want two files", files)
	}
}

// More datasets than workers: the store keeps at most one per worker.
func TestStoreKeepsOneDatasetPerWorker(t *testing.T) {
	cfg := testConfig(t)
	cfg.workers = 1
	srv, ts := startService(t, cfg)
	runCampaigns(t, srv, ts, storeCampaign("1"), storeCampaign("2"), storeCampaign("3"))
	if files := storedFiles(t, srv); len(files) != 1 {
		t.Errorf("store holds %v, want one file", files)
	}
	if n := materializations(srv); n != 3 {
		t.Errorf("%d materialisations, want 3", n)
	}
}

// A dataset a campaign holds is never evicted, even past the limit; of the
// idle ones the least recently acquired goes first, file and all.
func TestStoreNeverEvictsAHeldDataset(t *testing.T) {
	acquire := func(st *datasetStore, seed int64) *dataset {
		t.Helper()
		d, err := st.acquire(context.Background(), datasetSpec{Source: "nobench", Docs: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	exists := func(d *dataset) bool {
		_, err := os.Stat(d.path)
		return err == nil
	}

	st := newDatasetStore(t.TempDir(), 1, obs.NewRegistry())
	a := acquire(st, 1)
	b := acquire(st, 2) // two held datasets over a limit of one
	if !exists(a) || !exists(b) {
		t.Fatalf("a held dataset was deleted: %v %v", exists(a), exists(b))
	}
	st.release(b) // b is idle now, and the store over its limit
	if exists(b) || !exists(a) {
		t.Fatalf("after releasing b: a %v, b %v; want only a", exists(a), exists(b))
	}
	st.release(a)
	if !exists(a) {
		t.Fatal("the store's only dataset was evicted")
	}
	if again := acquire(st, 1); again != a {
		t.Error("a stored dataset was materialised again")
	} else {
		st.release(again)
	}
	if n := st.made.Value(); n != 2 {
		t.Errorf("%d materialisations, want 2", n)
	}

	lru := newDatasetStore(t.TempDir(), 2, obs.NewRegistry())
	var acquired []*dataset
	for _, seed := range []int64{1, 2, 1, 3} { // 2 is the least recently acquired
		d := acquire(lru, seed)
		lru.release(d)
		acquired = append(acquired, d)
	}
	if exists(acquired[1]) || !exists(acquired[2]) || !exists(acquired[3]) {
		t.Errorf("kept seed 1 %v, 2 %v, 3 %v; want 1 and 3", exists(acquired[2]), exists(acquired[1]), exists(acquired[3]))
	}
}

// Workers acquiring and releasing more specs than the limit at once: every
// acquired dataset is whole and on disk while held, and the store ends
// within its limit (run under -race).
func TestStoreUnderConcurrentCampaigns(t *testing.T) {
	const limit = 2
	st := newDatasetStore(t.TempDir(), limit, obs.NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				spec := datasetSpec{Source: "nobench", Docs: 100, Seed: int64((w + i) % 3)}
				d, err := st.acquire(context.Background(), spec)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := os.Stat(d.path); err != nil || d.stats.DocCount != 100 {
					t.Errorf("held dataset %d: %v, %d documents", spec.Seed, err, d.stats.DocCount)
				}
				st.release(d)
			}
		}()
	}
	wg.Wait()
	files, err := filepath.Glob(filepath.Join(st.dir, "*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) > limit || len(st.sets) > limit {
		t.Errorf("%d files and %d datasets after the campaigns, limit %d", len(files), len(st.sets), limit)
	}
}

// A materialisation that fails fails its campaign and is not kept: the next
// campaign on the key materialises again. A regular file where the store's
// directory belongs makes the write fail whatever the process's privileges.
func TestFailedMaterialisationIsRetried(t *testing.T) {
	srv, ts := startService(t, testConfig(t))
	if err := os.WriteFile(srv.store.dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	spec := storeCampaign("1")
	failed := waitCampaign(t, ts, decodeSnapshot(t, postCampaign(t, ts, spec, nil)).ID, jobqueue.StateFailed)
	if !strings.Contains(failed.Error, "campaign dataset") {
		t.Errorf("campaign failed with %q, want the dataset error", failed.Error)
	}
	if err := os.Remove(srv.store.dir); err != nil {
		t.Fatal(err)
	}
	if got, want := runCampaigns(t, srv, ts, spec)[0], coldArtifact(t, spec); !bytes.Equal(got, want) {
		t.Error("the retried campaign's artifact differs from the uncached run's")
	}
	if n := materializations(srv); n != 2 {
		t.Errorf("%d materialisations, want 2 (the failure and the retry)", n)
	}
}

// A campaign waiting for another's materialisation gives up when it is
// cancelled, and its hold ends.
func TestAcquireWaitEndsWithContext(t *testing.T) {
	st := newDatasetStore(t.TempDir(), 1, obs.NewRegistry())
	spec := datasetSpec{Source: "nobench", Docs: 100, Seed: 1}
	pending := &dataset{key: spec.key(), ready: make(chan struct{}), users: 1}
	st.sets[pending.key] = pending
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := st.acquire(ctx, spec); err == nil {
		t.Fatal("acquire returned a dataset still being materialised")
	}
	if pending.users != 1 {
		t.Errorf("the cancelled waiter left %d users, want 1", pending.users)
	}
}
