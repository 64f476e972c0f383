package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesRegistry pins BENCHMARK.json to the in-code registries
// (regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`) and
// checks the registries against the limits the driver enforces.
func TestManifestMatchesRegistry(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := buildManifest().json(); !bytes.Equal(onDisk, want) {
		t.Errorf("BENCHMARK.json has drifted from the registries; want:\n%s", want)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, the driver takes 2 to 8", len(workloads))
	}
	for _, w := range workloads {
		unique(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var setup bool
	for _, m := range metrics {
		unique(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Layer != (m.Bound == 0) || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v (layer=%v)", m.Name, m.Bound, m.Layer)
		}
		if m.Only != "" {
			if _, ok := workloadByName(m.Only); !ok {
				t.Errorf("metric %s: only on unknown workload %q", m.Name, m.Only)
			}
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" && m.universal())
	}
	if !setup {
		t.Error("no universal end-to-end metric setup_s in seconds, lower is better")
	}
	man := buildManifest()
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the driver takes 1 to 16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 1 to 128", n)
	}
}

// TestSmoke runs every workload both ways at a fiftieth of full size and
// checks the contract: exit 0, a last line that parses, exactly the metrics
// BENCHMARK.json lists for the mode, each finite; and in the result file the
// workload-only metrics as well, the environment header and a trace file.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts betze-web")
	}
	man := buildManifest()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			smoke(t, w, man)
		})
	}
}

func smoke(t *testing.T, w workloadDef, man manifest) {
	dir := t.TempDir()
	digest := ""
	for trace, listed := range [][]manifestMetric{man.EndToEnd, man.PerLayer} {
		out := filepath.Join(dir, "result.json")
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), []string{
			"--workload", w.Name, "--seed", "3", "--seconds", "0.5", "--trace", []string{"0", "1"}[trace],
			"-scale", "0.02", "-build-dir", dir, "-trace-dir", dir, "-out", out,
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("%s trace=%d: exit %d\n%s%s", w.Name, trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct   *bool `json:"correct"`
			Attempted int   `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&last); err != nil {
			t.Fatalf("%s trace=%d: last line: %v", w.Name, trace, err)
		}
		if last.Correct == nil || !*last.Correct || last.Failed == nil || *last.Failed != 0 || last.Attempted < 1 {
			t.Errorf("%s trace=%d: verdict %s", w.Name, trace, lines[len(lines)-1])
		}
		if len(last.Metrics) != len(listed) {
			t.Errorf("%s trace=%d: %d metrics on the last line, BENCHMARK.json lists %d", w.Name, trace, len(last.Metrics), len(listed))
		}
		for _, m := range listed {
			got, ok := last.Metrics[m.Name]
			if !ok || got.Value == nil || got.Unit != m.Unit || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) {
				t.Errorf("%s trace=%d: metric %s: %+v", w.Name, trace, m.Name, got)
			}
			if ok && m.Bound != nil && *got.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
			}
			if n := strings.Count(stdout.String(), "\n"+m.Name+" "); n != 1 {
				t.Errorf("%s trace=%d: metric %s printed %d times", w.Name, trace, m.Name, n)
			}
		}

		f, err := readResultFile(out)
		if err != nil {
			t.Fatal(err)
		}
		r := f.Runs[0]
		if r.Env.Schema != schemaVersion || r.Env.Go == "" || r.Env.NProc < 1 || r.Env.GoMaxProcs < 1 ||
			r.Env.Seed != 3 || r.Env.Scale != 0.02 || r.Env.MinRepeats != minRepeats || r.Repeats < minRepeats {
			t.Errorf("%s: environment header %+v, repeats %d", w.Name, r.Env, r.Repeats)
		}
		for _, d := range metrics {
			if _, ok := r.Metrics[d.Name]; ok != (d.Layer == (trace == 1) && d.applies(w.Name, r.Env.GoMaxProcs)) {
				t.Errorf("%s trace=%d: metric %s present=%v", w.Name, trace, d.Name, ok)
			}
		}
		// Traced and untraced runs execute the same first sessions.
		if digest != "" && digest != r.SessionsDigest {
			t.Errorf("%s: sessions_digest %s untraced, %s traced", w.Name, digest, r.SessionsDigest)
		}
		digest = r.SessionsDigest
	}
	spans, err := os.ReadFile(filepath.Join(dir, "trace-"+w.Name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int]bool{0: true}
	for _, line := range strings.Split(strings.TrimSpace(string(spans)), "\n") {
		var s spanRecord
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("%s: trace line %q: %v", w.Name, line, err)
		}
		if !ids[s.Parent] || s.EndNS < s.StartNS || s.Name == "" {
			t.Errorf("%s: span %+v has no recorded parent or ends before it starts", w.Name, s)
		}
		ids[s.Span] = true
	}
}

func TestPercentileSelection(t *testing.T) {
	var s []float64
	for i := 60; i >= 1; i-- {
		s = append(s, float64(i))
	}
	if got := quantile(s, 0.8); got != 48 {
		t.Errorf("p80 of 1..60 = %v, want 48", got)
	}
	if got := beyond(60, 0.8); got != 12 {
		t.Errorf("beyond p80 of 60 = %d, want 12", got)
	}
	if got := quantile(s, 0.5); got != 30 {
		t.Errorf("p50 of 1..60 = %v, want 30", got)
	}
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{{49, 0.8, 9}, {50, 0.8, 10}, {1, 0.8, 0}, {10, 0.5, 5}, {100, 0.99, 1}} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, %v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}

	res := &runResult{Metrics: map[string]measured{}}
	res.setPercentile("campaign_p80_s", s[:49], 0.8)
	if m := res.Metrics["campaign_p80_s"]; *m.Beyond != 9 || m.N != 49 || len(res.Notes) != 1 {
		t.Errorf("a p80 with 9 samples beyond must be noted: %+v, notes %q", m, res.Notes)
	}
}

func TestIQRShare(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: it extrapolates
	if got := iqrShare([]float64{2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1, 2) = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
	if got := iqrShare([]float64{3, 1, 4, 1, 5, 9, 2, 6}); math.Abs(got-4.5/3.5) > 1e-12 {
		t.Errorf("iqrShare(3 1 4 1 5 9 2 6) = %v, want %v", got, 4.5/3.5)
	}
	if got := iqrShare([]float64{7}); got != 0 {
		t.Errorf("one run has no spread, got %v", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := e2e("pipeline_s", "s", "lower", 0.10)
	higher := e2e("analyze_mb_per_s", "MB/s", "higher", 0.10)
	for _, c := range []struct {
		name       string
		def        metricDef
		base, next []float64
		want       string
	}{
		{"slower past the bound", lower, []float64{1.00, 1.01, 1.02}, []float64{1.20, 1.21, 1.22}, verdictWorse},
		{"slower within the bound", lower, []float64{1.00, 1.01, 1.02}, []float64{1.05, 1.06, 1.07}, verdictWithin},
		{"faster than the spread", lower, []float64{1.00, 1.01, 1.02}, []float64{0.90, 0.91, 0.92}, verdictBetter},
		{"noisy and overlapping", lower, []float64{1.0, 1.3, 1.6}, []float64{1.2, 1.5, 1.9}, verdictUnresolved},
		{"noisy but every run slower", lower, []float64{1.0, 1.3, 1.6}, []float64{2.0, 2.4, 2.9}, verdictWorse},
		{"throughput down", higher, []float64{100, 101, 102}, []float64{80, 81, 82}, verdictWorse},
		{"throughput up", higher, []float64{100, 101, 102}, []float64{120, 121, 122}, verdictBetter},
		{"single runs", lower, []float64{1.0}, []float64{1.05}, verdictWithin},
	} {
		if got := judge(c.def, c.base, c.next); got.Verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (%+v)", c.name, got.Verdict, c.want, got)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, pipeline float64, failed int) string {
		var runs []runResult
		for i := 0; i < 3; i++ {
			r := runResult{Workload: "twitter-explore", Attempted: 100, Failed: failed, SessionsDigest: "abc", Metrics: map[string]measured{}}
			r.set("pipeline_s", pipeline+float64(i)/100, 3)
			runs = append(runs, r)
		}
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, runs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 1.0, 0)
	for _, c := range []struct {
		next  string
		worse bool
		text  string
	}{
		{write("same.json", 1.0, 0), false, verdictWithin},
		{write("slow.json", 1.5, 0), true, verdictWorse},
		{write("failing.json", 1.0, 2), true, "failed_share"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, base, c.next)
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.text) {
			t.Errorf("%s: worse=%v, want %v\n%s", c.next, worse, c.worse, out.String())
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer("t")
	root := tr.start(span{}, "root")
	a := tr.start(root, "query:q1")
	a.end("scanned", 10)
	b := tr.start(root, "query:q2")
	b.end()
	root.end()
	tr.spans[0].StartNS, tr.spans[0].EndNS = 0, 100
	tr.spans[1].StartNS, tr.spans[1].EndNS = 10, 30
	tr.spans[2].StartNS, tr.spans[2].EndNS = 40, 90
	got := selfTimes(tr.spans)
	if len(got) != 2 || got[0].Name != "root" || got[1].Name != "query" || got[1].Count != 2 {
		t.Fatalf("self times %+v", got)
	}
	if math.Abs(got[0].SelfS-30e-9) > 1e-15 || math.Abs(got[1].TotalS-70e-9) > 1e-15 {
		t.Errorf("root self %v (want 30ns), query total %v (want 70ns)", got[0].SelfS, got[1].TotalS)
	}
	if tr.spans[1].Attrs["scanned"] != 10 {
		t.Errorf("attrs %v", tr.spans[1].Attrs)
	}
	// Overlapping children (two web clients) cover their union, 10..90.
	tr.spans[2].StartNS = 20
	if got := selfTimes(tr.spans); math.Abs(got[0].SelfS-20e-9) > 1e-15 {
		t.Errorf("root self %v with overlapping children, want 20ns", got[0].SelfS)
	}
}
