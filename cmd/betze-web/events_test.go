package main

import (
	"bufio"
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
	"github.com/joda-explore/betze/internal/runlog"
)

// sseEvent is one event of a campaign's stream: the record type and the
// journal JSON it carried.
type sseEvent struct{ name, data string }

// openEvents connects to a campaign's event stream and delivers its events
// on a channel that closes when the server ends the stream.
func openEvents(t *testing.T, baseURL, id string) <-chan sseEvent {
	t.Helper()
	resp, err := http.Get(baseURL + "/api/campaigns/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("events status %d", resp.StatusCode)
	}
	stop := make(chan struct{})
	t.Cleanup(func() {
		close(stop)
		resp.Body.Close()
	})
	ch := make(chan sseEvent)
	go func() {
		defer close(ch)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), maxBodyBytes)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case line == "" && ev.name != "":
				select {
				case ch <- ev:
				case <-stop:
					return
				}
				ev = sseEvent{}
			}
		}
	}()
	return ch
}

// collect reads a stream to its end, or for at most 30s; callers check
// that what it returned ends where it should.
func collect(ch <-chan sseEvent) []sseEvent {
	var out []sseEvent
	timeout := time.After(30 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, ev)
		case <-timeout:
			return out
		}
	}
}

// next waits for one event of a stream that must still be open.
func next(t *testing.T, ch <-chan sseEvent) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("stream ended early")
		}
		return ev
	case <-time.After(30 * time.Second):
		t.Fatal("no event within 30s")
	}
	return sseEvent{}
}

func names(evs []sseEvent) []string {
	var out []string
	for _, ev := range evs {
		out = append(out, ev.name)
	}
	return out
}

// journalOf returns campaign id's records in the journal under dataDir.
func journalOf(t *testing.T, dataDir, id string) []string {
	t.Helper()
	rec, err := runlog.Recover(filepath.Join(dataDir, "queue"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, payload := range rec.Records {
		var r struct {
			Job string `json:"job"`
		}
		if err := json.Unmarshal(payload, &r); err != nil {
			t.Fatal(err)
		}
		if r.Job == id {
			out = append(out, string(payload))
		}
	}
	return out
}

// assertJournal requires a stream to carry exactly the campaign's journal
// records: each once, in journal order.
func assertJournal(t *testing.T, evs []sseEvent, journal []string) {
	t.Helper()
	if len(evs) != len(journal) {
		t.Fatalf("stream has %d events %v, journal %d records", len(evs), names(evs), len(journal))
	}
	for i, ev := range evs {
		if ev.data != journal[i] {
			t.Fatalf("event %d = %s, journal record %s", i, ev.data, journal[i])
		}
	}
}

// TestDrainEndsOpenEventStreams: a graceful drain ends every open event
// stream, also of a campaign that is still queued, so SSE clients cannot
// hold the HTTP shutdown for its whole drain budget.
func TestDrainEndsOpenEventStreams(t *testing.T) {
	srv, err := newServer(testConfig(t)) // no workers: the campaign stays queued
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	snap := decodeSnapshot(t, postCampaign(t, ts, smallCampaign(), nil))
	stream := openEvents(t, ts.URL, snap.ID)
	if ev := next(t, stream); ev.name != jobqueue.RecSubmitted {
		t.Fatalf("first event %q, want submitted", ev.name)
	}

	srv.drain()
	deadline := time.After(time.Second)
	for {
		select {
		case _, ok := <-stream:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("event stream still open 1s after the drain")
		}
	}
}

// TestCampaignEventsReplayAfterDone: a client that connects after the
// campaign finished gets its whole history, ending on done.
func TestCampaignEventsReplayAfterDone(t *testing.T) {
	cfg := testConfig(t)
	_, ts := startService(t, cfg)
	snap := decodeSnapshot(t, postCampaign(t, ts, smallCampaign(), nil))
	waitCampaign(t, ts, snap.ID, jobqueue.StateDone)

	evs := collect(openEvents(t, ts.URL, snap.ID))
	want := []string{"submitted", "claimed", "running", "checkpoint", "done"}
	if got := names(evs); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("events = %v, want %v", got, want)
	}
	assertJournal(t, evs, journalOf(t, cfg.dataDir, snap.ID))
}

// TestCampaignEventsAfterRestart: a server reopened over the same data
// directory, whose journal ends in a torn record, streams the records
// written before the restart, then the released record its queue journals
// for the interrupted campaign, then the resumed run.
func TestCampaignEventsAfterRestart(t *testing.T) {
	cfg := testConfig(t)
	first, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(first)
	snap := decodeSnapshot(t, postCampaign(t, ts1, smallCampaign(), nil))
	ts1.Close()
	// Leave the campaign claimed, as a crash mid-run would.
	if _, err := first.queue.Claim(t.Context()); err != nil {
		t.Fatal(err)
	}
	first.drain()
	journal := filepath.Join(cfg.dataDir, "queue", "current.wal")
	f, err := os.OpenFile(journal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x20, 0, 0}) // half a record header: a torn tail
	f.Close()

	_, ts2 := startService(t, cfg)
	evs := collect(openEvents(t, ts2.URL, snap.ID))
	want := []string{"submitted", "claimed", "released", "claimed", "running", "checkpoint", "done"}
	if got := names(evs); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("events = %v, want %v", got, want)
	}
	assertJournal(t, evs, journalOf(t, cfg.dataDir, snap.ID))
}

// TestCampaignEventsConcurrentClients: clients streaming at the same time,
// two per campaign for two campaigns, each see every record of their
// campaign exactly once and in journal order.
func TestCampaignEventsConcurrentClients(t *testing.T) {
	cfg := testConfig(t)
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.drain)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	spec := strings.Replace(smallCampaign(), `"seeds": [1]`, `"seeds": [1, 2]`, 1)
	var ids []string
	for range 2 {
		ids = append(ids, decodeSnapshot(t, postCampaign(t, ts, spec, nil)).ID)
	}
	type client struct {
		id     string
		stream <-chan sseEvent
		first  sseEvent
	}
	var clients []*client
	for _, id := range ids {
		for range 2 {
			c := &client{id: id, stream: openEvents(t, ts.URL, id)}
			c.first = next(t, c.stream) // connected before any campaign runs
			clients = append(clients, c)
		}
	}
	srv.start(t.Context())

	got := make([][]sseEvent, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = append([]sseEvent{c.first}, collect(c.stream)...)
		}()
	}
	wg.Wait()
	for i, c := range clients {
		if evs := got[i]; len(evs) == 0 || evs[len(evs)-1].name != jobqueue.RecDone {
			t.Fatalf("client %d of %s: stream %v did not end on done", i, c.id, names(evs))
		}
		assertJournal(t, got[i], journalOf(t, cfg.dataDir, c.id))
	}
}
