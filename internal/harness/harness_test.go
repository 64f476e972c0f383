package harness

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/errfs"
	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/obs"
)

// tinyConfig keeps harness tests fast.
func tinyConfig(t *testing.T) Config {
	return Config{
		Dir:          t.TempDir(),
		TwitterDocs:  600,
		NoBenchDocs:  600,
		NoBenchSweep: []int{200, 400},
		RedditDocs:   600,
		Sessions:     2,
		GridSessions: 1,
		Threads:      []int{1, 2},
		Timeout:      30 * time.Second,
		Seed:         123,
	}
}

func newTinyEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(tinyConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { env.Close() })
	return env
}

func TestFormatDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0s"},
		{500 * time.Microsecond, "0.5ms"},
		{250 * time.Millisecond, "250ms"},
		{2400 * time.Millisecond, "2.4s"},
		{32 * time.Second, "32s"},
		{74 * time.Second, "1.23m"},
		{19*time.Minute + 20*time.Second, "19.3m"},
		{66 * time.Minute, "1.1h"},
		{8 * time.Hour, "8h"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestBoxStats(t *testing.T) {
	samples := []time.Duration{5, 1, 3, 2, 4}
	b := box(samples)
	if b.Min != 1 || b.Max != 5 || b.Median != 3 || b.Q1 != 2 || b.Q3 != 4 {
		t.Errorf("box = %+v", b)
	}
	if z := box(nil); z.Min != 0 || z.Max != 0 {
		t.Errorf("empty box = %+v", z)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 14 {
		t.Fatalf("expected 14 experiments, got %d", len(exps))
	}
	seen := map[string]bool{}
	for _, exp := range exps {
		if exp.ID == "" || exp.Title == "" || exp.Run == nil {
			t.Errorf("experiment %+v incomplete", exp.ID)
		}
		if seen[exp.ID] {
			t.Errorf("duplicate experiment id %s", exp.ID)
		}
		seen[exp.ID] = true
		if _, err := ByID(exp.ID); err != nil {
			t.Errorf("ByID(%s): %v", exp.ID, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Errorf("unknown id accepted")
	}
}

// TestAllExperimentsRunAtTinyScale runs every experiment under checkpoints
// and checks its output. It is also the collision check of session keys:
// each experiment saves one distinct key per session it runs (a repeated
// key would replay a checkpoint of the same run as a resume skip), as many
// as the occurrence-counted keys that preceded content keys.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny-scale full sweep still takes a few seconds")
	}
	env := newTinyEnv(t)
	reg := obs.NewRegistry()
	env.Cfg.Obs = obs.Scope{Metrics: reg}
	fsys := errfs.NewMem()
	q, err := jobqueue.Open(testJournal, jobqueue.Options{FS: fsys, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	job, err := q.Submit("test", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	env.SetCheckpoints(q.Checkpoints(job.ID))
	sessions := map[string]int{
		"fig5": 6, "fig6": 6, "fig7": 64, "fig9": 5, "fig10": 8,
		"table2": 10, "table3": 108, "resilience": 6,
	}
	checks := map[string][]string{
		"table1": {"novice", "0.50", "0.30", "20", "expert", "0.05"},
		"fig5":   {"q1", "q20", "novice", "intermediate", "expert"},
		"fig6":   {"median", "novice", "expert"},
		"fig7":   {"0.9", "-", "alpha"},
		"fig8":   {"Twitter", "NoBench", "Reddit"},
		"fig9":   {"threads", "JODA", "MongoDB", "PostgreSQL", "jq"},
		"fig10":  {"documents", "200", "400"},
		"table2": {"JODA memory evicted", "Twitter", "NoBench"},
		"table3": {"nov-Default", "exp-GAgg", "load failed"},
		"table4": {"path depth", "documents", "queries default", "queries weighted paths"},
		"gencost": {
			"dataset analysis time", "query generation time",
		},
		"skew":       {"top-10", "top-20", "references"},
		"multiuser":  {"concurrent users", "queries/s", "8"},
		"resilience": {"fault rate", "retried", "recovered", "0%", "50%"},
	}
	for _, exp := range Experiments() {
		res, _, err := env.RunExperiment(context.Background(), exp)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		out := res.Text()
		if out == "" {
			t.Fatalf("%s produced no output", exp.ID)
		}
		for _, frag := range checks[exp.ID] {
			if !strings.Contains(out, frag) {
				t.Errorf("%s output missing %q:\n%s", exp.ID, frag, out)
			}
		}
		// Every experiment must also export machine-readable forms.
		if csvOut := res.CSV(); !strings.HasPrefix(csvOut, "# ") {
			t.Errorf("%s CSV export missing table header comment:\n%s", exp.ID, csvOut)
		}
		if _, err := res.JSON(); err != nil {
			t.Errorf("%s JSON export: %v", exp.ID, err)
		}
		t.Logf("%s:\n%s", exp.Title, out)
	}
	if err := env.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
	if skips := reg.Counter(obs.MHarnessResumeSkips).Value(); skips != 0 {
		t.Errorf("%d sessions replayed another's checkpoint", skips)
	}
	records := journalRecords(t, fsys)
	for _, exp := range Experiments() {
		keys, results := countCheckpoints(t, records, exp)
		ran := 0
		for key, n := range keys {
			if strings.HasPrefix(key, exp.ID+"/") {
				ran += n
				if n != 1 {
					t.Errorf("%s saved key %s %d times", exp.ID, key, n)
				}
			}
		}
		if ran != sessions[exp.ID] || results != 1 {
			t.Errorf("%s saved %d session keys and %d results, want %d and 1", exp.ID, ran, results, sessions[exp.ID])
		}
	}
}

func TestRunSessionTimeout(t *testing.T) {
	cfg := tinyConfig(t)
	cfg.Timeout = time.Nanosecond
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ds, err := env.Twitter()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := ds.generate(core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := env.run(context.Background(), env.unit(Systems["joda"], 0, ds, sess))
	if !res.TimedOut && res.Error == "" {
		t.Errorf("nanosecond timeout did not trip: %+v", res)
	}
	if res.cell() != "-" && res.Error == "" {
		t.Errorf("timeout cell = %q", res.cell())
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.TwitterDocs != 8000 || cfg.NoBenchDocs != 20000 || cfg.RedditDocs != 20000 {
		t.Errorf("dataset defaults: %+v", cfg)
	}
	if len(cfg.NoBenchSweep) == 0 || cfg.Sessions != 10 || cfg.GridSessions != 3 {
		t.Errorf("run defaults: %+v", cfg)
	}
	if len(cfg.Threads) < 3 || cfg.Threads[0] != 1 {
		t.Errorf("thread sweep: %v", cfg.Threads)
	}
	if cfg.Timeout != 2*time.Minute || cfg.Seed != 123 {
		t.Errorf("timeout/seed defaults: %v/%d", cfg.Timeout, cfg.Seed)
	}
	// Explicit values survive.
	c2 := Config{TwitterDocs: 5, Sessions: 1, Seed: 9}.withDefaults()
	if c2.TwitterDocs != 5 || c2.Sessions != 1 || c2.Seed != 9 {
		t.Errorf("explicit values overridden: %+v", c2)
	}
}

// TestDefaultThreadSweep covers the Fig. 9 sweep construction, including the
// non-power-of-two machines whose core count the doubling used to skip.
func TestDefaultThreadSweep(t *testing.T) {
	cases := []struct {
		ncpu int
		want []int
	}{
		{1, []int{1, 2, 4}},
		{2, []int{1, 2, 4}},
		{3, []int{1, 2, 3, 4}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 4, 6}},
		{8, []int{1, 2, 4, 8}},
		{12, []int{1, 2, 4, 8, 12}},
		{60, []int{1, 2, 4, 8, 16, 32, 60}},
		{64, []int{1, 2, 4, 8, 16, 32, 64}},
	}
	for _, c := range cases {
		got := defaultThreadSweep(c.ncpu)
		if len(got) != len(c.want) {
			t.Errorf("defaultThreadSweep(%d) = %v, want %v", c.ncpu, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("defaultThreadSweep(%d) = %v, want %v", c.ncpu, got, c.want)
				break
			}
		}
	}
}

func TestNewEnvOwnedAndExplicitDirs(t *testing.T) {
	env, err := NewEnv(Config{})
	if err != nil {
		t.Fatal(err)
	}
	dir := env.dir
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("owned temp dir not removed: %v", err)
	}
	explicit := filepath.Join(t.TempDir(), "bench")
	env2, err := NewEnv(Config{Dir: explicit})
	if err != nil {
		t.Fatal(err)
	}
	if err := env2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(explicit); err != nil {
		t.Errorf("explicit dir removed on Close: %v", err)
	}
}

func TestResultCellRendering(t *testing.T) {
	cases := []struct {
		res  SessionRecord
		want string
	}{
		{SessionRecord{Queries: []QueryRecord{{ID: "q1", DurationUS: 2e6}}}, "2s"},
		{SessionRecord{TimedOut: true}, "-"},
		{SessionRecord{Error: "import: " + os.ErrNotExist.Error()}, "load failed"},
		{SessionRecord{Queries: []QueryRecord{{ID: "q1", Error: os.ErrInvalid.Error(), Skipped: true}}}, "error"},
	}
	for _, c := range cases {
		if got := c.res.cell(); got != c.want {
			t.Errorf("cell(%+v) = %q, want %q", c.res, got, c.want)
		}
	}
}

func TestPercent(t *testing.T) {
	if percent(1, 4) != "25.0%" || percent(0, 0) != "0.0%" {
		t.Errorf("percent rendering: %s / %s", percent(1, 4), percent(0, 0))
	}
}
