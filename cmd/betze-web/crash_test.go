package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/runlog"
)

// TestMain doubles as the child process of the crash-resume integration
// test: re-executed with BETZE_WEB_CHILD=1 the test binary behaves like the
// real betze-web, serving with the args passed through BETZE_WEB_ARGS
// (unit-separator-delimited) — the process the test SIGKILLs mid-campaign.
func TestMain(m *testing.M) {
	if os.Getenv("BETZE_WEB_CHILD") == "1" {
		args := strings.Split(os.Getenv("BETZE_WEB_ARGS"), "\x1f")
		if err := run(args, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "betze-web:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// childLog collects subprocess output from the exec stderr copier and the
// banner-scanner goroutine; a plain bytes.Buffer would race with the test
// body reading it for failure messages.
type childLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *childLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *childLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// webChild is one betze-web subprocess under test.
type webChild struct {
	cmd    *exec.Cmd
	url    string
	out    *childLog
	exited chan struct{} // closed once Wait returns
	err    error         // valid after exited is closed
}

// startChild launches the test binary as a betze-web server on an ephemeral
// port over dataDir and waits for its "listening" banner.
func startChild(t *testing.T, dataDir string) *webChild {
	t.Helper()
	args := []string{"-addr", "127.0.0.1:0", "-data", dataDir, "-workers", "1"}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"BETZE_WEB_CHILD=1",
		"BETZE_WEB_ARGS="+strings.Join(args, "\x1f"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	c := &webChild{cmd: cmd, out: &childLog{}, exited: make(chan struct{})}
	cmd.Stderr = c.out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(c.out, line)
			if i := strings.Index(line, "http://"); i >= 0 {
				fields := strings.Fields(line[i:])
				select {
				case urlc <- fields[0]:
				default:
				}
			}
		}
	}()
	go func() {
		c.err = cmd.Wait()
		close(c.exited)
	}()
	select {
	case c.url = <-urlc:
	case <-c.exited:
		t.Fatalf("child exited before listening: %v\n%s", c.err, c.out)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("child never printed its address:\n%s", c.out)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-c.exited
	})
	return c
}

// crashSpec is the campaign both runs execute: six units (three seeds × two
// engines), so the kill lands between checkpoints, deterministic in every
// field. 400 documents keep a unit tens of milliseconds long under -race,
// far longer than the victim's 2 ms poll.
const crashSpec = `{
	"dataset": {"source": "twitter", "docs": 400, "seed": 11},
	"preset": "expert",
	"seeds": [1, 2, 3],
	"engines": ["joda", "jq"]
}`

// submitCrashCampaign posts crashSpec and returns the campaign ID.
func submitCrashCampaign(t *testing.T, baseURL string) string {
	t.Helper()
	return submitChildCampaign(t, baseURL, crashSpec)
}

// submitChildCampaign posts spec and returns the campaign ID.
func submitChildCampaign(t *testing.T, baseURL, spec string) string {
	t.Helper()
	// The server listens before journal recovery finishes and sheds with
	// 503 + Retry-After in the window between; behave like a well-mannered
	// client and retry.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(baseURL+"/api/campaigns", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable && time.Now().Before(deadline) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(10 * time.Millisecond)
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
		var snap jobqueue.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap.ID
	}
}

// campaignSnapshot fetches the campaign state; ok is false while the server
// is unreachable or restarting.
func campaignSnapshot(baseURL, id string) (jobqueue.Snapshot, bool) {
	resp, err := http.Get(baseURL + "/api/campaigns/" + id)
	if err != nil {
		return jobqueue.Snapshot{}, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobqueue.Snapshot{}, false
	}
	var snap jobqueue.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return jobqueue.Snapshot{}, false
	}
	return snap, true
}

// waitChildCampaignDone polls until the campaign is done (fatal on failed).
func waitChildCampaignDone(t *testing.T, c *webChild, id string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		snap, ok := campaignSnapshot(c.url, id)
		if ok {
			if snap.State == jobqueue.StateDone {
				return
			}
			if snap.State.Terminal() {
				t.Fatalf("campaign %s: %s (%s)\n%s", id, snap.State, snap.Error, c.out)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s never completed:\n%s", id, c.out)
}

// TestServeCrashResume is the service-level kill-and-resume gate: run a
// campaign to completion on one server (the baseline), run the same
// campaign on a second server SIGKILLed mid-campaign, restart over the same
// data directory, and require the recovered server to finish the campaign
// and publish a byte-identical artifact. Finally, SIGTERM the survivor and
// require a clean journal (graceful drain).
func TestServeCrashResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one campaign three times across subprocesses")
	}

	// Baseline: uninterrupted campaign.
	baseDir := t.TempDir()
	base := startChild(t, baseDir)
	baseID := submitCrashCampaign(t, base.url)
	waitChildCampaignDone(t, base, baseID)
	baseArtifact, err := os.ReadFile(filepath.Join(baseDir, "artifacts", baseID+".json"))
	if err != nil {
		t.Fatalf("baseline artifact: %v", err)
	}
	base.cmd.Process.Kill()
	<-base.exited

	// Victim: SIGKILL once at least one unit checkpoint is durable, and
	// before the last.
	crashDir := t.TempDir()
	victim := startChild(t, crashDir)
	id := submitCrashCampaign(t, victim.url)
	if id != baseID {
		t.Fatalf("campaign IDs diverge: %s vs %s", id, baseID)
	}
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(2 * time.Millisecond) {
		if snap, ok := campaignSnapshot(victim.url, id); ok && (snap.Checkpoints >= 1 || snap.State.Terminal()) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no unit checkpoint within 2 minutes:\n%s", victim.out)
		}
	}
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-victim.exited
	checkpoints := 0
	for _, r := range journalOf(t, crashDir, id) {
		if strings.HasPrefix(r, `{"type":"checkpoint"`) {
			checkpoints++
		}
	}
	if checkpoints < 1 || checkpoints >= 6 {
		t.Fatalf("the kill left %d of the campaign's 6 unit checkpoints in the journal; want it between the first and the last", checkpoints)
	}

	// Restart over the same data directory: recovery must requeue the
	// campaign and resume it from its checkpoints without resubmission.
	revived := startChild(t, crashDir)
	waitChildCampaignDone(t, revived, id)
	crashArtifact, err := os.ReadFile(filepath.Join(crashDir, "artifacts", id+".json"))
	if err != nil {
		t.Fatalf("resumed artifact: %v", err)
	}
	if !bytes.Equal(baseArtifact, crashArtifact) {
		t.Errorf("resumed artifact differs from uninterrupted baseline (%d vs %d bytes)",
			len(crashArtifact), len(baseArtifact))
	}

	// Graceful drain: SIGTERM, clean exit, and a journal that recovers
	// whole, ending the campaign on done.
	if err := revived.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-revived.exited:
		if revived.err != nil {
			t.Fatalf("SIGTERM exit: %v\n%s", revived.err, revived.out)
		}
	case <-time.After(time.Minute):
		revived.cmd.Process.Kill()
		t.Fatalf("graceful drain hung:\n%s", revived.out)
	}
	rec, err := runlog.Recover(filepath.Join(crashDir, "queue"))
	if err != nil {
		t.Fatalf("journal after graceful drain: %v", err)
	}
	if rec.Truncated {
		t.Errorf("journal truncated after graceful drain: %v", rec.Reason)
	}
	if records := journalOf(t, crashDir, id); len(records) == 0 ||
		!strings.HasPrefix(records[len(records)-1], `{"type":"done"`) {
		t.Errorf("campaign's last journal record is not done: %v", records)
	}
}

// TestServeCrashResumeAfterDatasetCommit SIGKILLs the server in the window
// between the dataset store's commit and the campaign's first unit
// checkpoint. The restart empties the store, so the resumed campaign
// materialises the dataset again; its artifact must still equal an
// uninterrupted run's byte for byte. Analysing the 2000 documents after
// the commit keeps the window tens of milliseconds wide.
func TestServeCrashResumeAfterDatasetCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one campaign twice across subprocesses")
	}
	const spec = `{
		"dataset": {"source": "twitter", "docs": 2000, "seed": 11},
		"preset": "expert", "seeds": [1], "engines": ["joda"]
	}`
	baseDir := t.TempDir()
	base := startChild(t, baseDir)
	baseID := submitChildCampaign(t, base.url, spec)
	waitChildCampaignDone(t, base, baseID)
	baseArtifact, err := os.ReadFile(filepath.Join(baseDir, "artifacts", baseID+".json"))
	if err != nil {
		t.Fatalf("baseline artifact: %v", err)
	}
	base.cmd.Process.Kill()
	<-base.exited

	crashDir := t.TempDir()
	victim := startChild(t, crashDir)
	id := submitChildCampaign(t, victim.url, spec)
	committed := filepath.Join(crashDir, "datasets", "*.ndjson")
	for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(time.Millisecond) {
		if files, _ := filepath.Glob(committed); len(files) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no dataset committed:\n%s", victim.out)
		}
	}
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-victim.exited
	for _, r := range journalOf(t, crashDir, id) {
		if strings.HasPrefix(r, `{"type":"checkpoint"`) {
			t.Log("a unit checkpoint landed before the kill; the resume is still checked")
			break
		}
	}

	revived := startChild(t, crashDir)
	waitChildCampaignDone(t, revived, id)
	crashArtifact, err := os.ReadFile(filepath.Join(crashDir, "artifacts", id+".json"))
	if err != nil {
		t.Fatalf("resumed artifact: %v", err)
	}
	if !bytes.Equal(baseArtifact, crashArtifact) {
		t.Errorf("resumed artifact differs from uninterrupted baseline (%d vs %d bytes)",
			len(crashArtifact), len(baseArtifact))
	}
}
