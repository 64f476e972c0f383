package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"github.com/joda-explore/betze/internal/fsatomic"
)

// envHeader says where and how a run was measured. Every run in a result
// file carries its own.
type envHeader struct {
	Schema     int     `json:"schema"`
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	MinRepeats int     `json:"min_repeats"`
}

func newEnvHeader(seed int64, scale, seconds float64) envHeader {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envHeader{
		Schema: schemaVersion, Commit: commit, Go: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: seed, Scale: scale, Seconds: seconds, MinRepeats: minRepeats,
	}
}

// measured is one metric value as measured, with the sample count behind it
// and, for a percentile, how many samples lie beyond it.
type measured struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Beyond *int    `json:"beyond,omitempty"`
}

// runResult is one run of one workload, traced or not.
type runResult struct {
	Env            envHeader           `json:"env"`
	Workload       string              `json:"workload"`
	Trace          bool                `json:"trace"`
	Docs           int                 `json:"docs"`
	Repeats        int                 `json:"repeats"`
	Correct        bool                `json:"correct"`
	Attempted      int                 `json:"attempted"`
	Failed         int                 `json:"failed"`
	SessionsDigest string              `json:"sessions_digest"`
	Metrics        map[string]measured `json:"metrics"`
	Notes          []string            `json:"notes,omitempty"`
	// ExecuteSplit is, per sim, the replay-estimated share of execute_s by
	// phase; unattributed_share is what the kernel rates do not explain.
	ExecuteSplit map[string]map[string]float64 `json:"execute_split,omitempty"`
	SelfTimes    []selfTime                    `json:"self_times,omitempty"`
}

// resultFile is what -out writes: one or more runs.
type resultFile struct {
	Schema int         `json:"schema"`
	Runs   []runResult `json:"runs"`
}

func writeResultFile(path string, runs []runResult) error {
	data, err := json.MarshalIndent(resultFile{Schema: schemaVersion, Runs: runs}, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return fsatomic.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schemaVersion {
		return f, fmt.Errorf("%s: schema %d, this build reads schema %d", path, f.Schema, schemaVersion)
	}
	return f, nil
}

// set records a metric under its registered unit.
func (r *runResult) set(name string, value float64, n int) {
	def, ok := metricByName(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the registry")
	}
	r.Metrics[name] = measured{Value: value, Unit: def.Unit, N: n}
}

// setPercentile records the p-quantile of samples (nearest rank) with the
// number of samples beyond it; fewer than ten beyond is noted, since such a
// tail is not resolved.
func (r *runResult) setPercentile(name string, samples []float64, p float64) {
	r.set(name, quantile(samples, p), len(samples))
	m := r.Metrics[name]
	b := beyond(len(samples), p)
	m.Beyond = &b
	r.Metrics[name] = m
	if p > 0.5 && b < 10 {
		r.note("%s: only %d of %d samples lie beyond p%.0f", name, b, len(samples), p*100)
	}
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail counts a failed operation or a correctness mismatch.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Notes) < 50 { // a broken build fails thousands of checks alike
		r.note("FAILED: "+format, args...)
	}
}

// finish checks that the run emitted exactly the metrics the registry says it
// must, each finite, and settles Correct.
func (r *runResult) finish() {
	for _, d := range metrics {
		m, ok := r.Metrics[d.Name]
		want := d.Layer == r.Trace && d.applies(r.Workload, r.Env.GoMaxProcs)
		switch {
		case want && !ok:
			r.fail("metric %s was not measured", d.Name)
		case !want && ok:
			r.fail("metric %s does not belong to this run", d.Name)
		case ok && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)):
			r.fail("metric %s is not finite", d.Name)
		}
	}
	if r.Env.GoMaxProcs == 1 {
		r.note("GOMAXPROCS=1: scan.parallel_speedup is not published from a one-core run")
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
}

// print writes every metric by name with its unit, then the notes.
func (r *runResult) print(w io.Writer) {
	mode := "end-to-end (untraced)"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s  %s  docs=%d repeats=%d seed=%d scale=%.4g gomaxprocs=%d commit=%s\n",
		r.Workload, mode, r.Docs, r.Repeats, r.Env.Seed, r.Env.Scale, r.Env.GoMaxProcs, r.Env.Commit)
	for _, d := range metrics {
		m, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf("  n=%d", m.N)
		}
		if m.Beyond != nil {
			extra += fmt.Sprintf(" beyond=%d", *m.Beyond)
		}
		if d.Exact {
			extra += "  exact"
		}
		fmt.Fprintf(w, "%-36s %14.6g %-6s%s\n", d.Name, m.Value, m.Unit, extra)
	}
	for _, sim := range sortedKeys(r.ExecuteSplit) {
		fmt.Fprintf(w, "execute split %-9s", sim)
		for _, phase := range sortedKeys(r.ExecuteSplit[sim]) {
			fmt.Fprintf(w, " %s=%.3f", phase, r.ExecuteSplit[sim][phase])
		}
		fmt.Fprintln(w)
	}
	for _, st := range r.SelfTimes {
		fmt.Fprintf(w, "span %-16s count=%-5d total=%.4fs self=%.4fs\n", st.Name, st.Count, st.TotalS, st.SelfS)
	}
	fmt.Fprintf(w, "sessions_digest %s\n", r.SessionsDigest)
	fmt.Fprintf(w, "attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// contractLine is the last line of standard output: the run's verdict and
// the metrics BENCHMARK.json lists for this mode.
func (r *runResult) contractLine() []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range metrics {
		if m, ok := r.Metrics[d.Name]; ok && d.universal() && d.Layer == r.Trace {
			out.Metrics[d.Name] = value{m.Value, m.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err) // finish() refused non-finite values; nothing else can fail
	}
	return data
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile is the nearest-rank p-quantile of samples (0 < p <= 1).
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	return min(n, max(1, int(math.Ceil(p*float64(n)-1e-9))))
}

// beyond is how many of n samples lie strictly beyond the p-quantile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// median is the middle sample, or the mean of the middle two.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	return sum(samples) / float64(len(samples))
}

func sum(samples []float64) float64 {
	var t float64
	for _, x := range samples {
		t += x
	}
	return t
}

// balanced averages paired with/without ratios taken in alternating order:
// whichever side of a pair runs second finds caches and heap warm, and the
// mean of the two orders' means cancels that.
func balanced(byOrder [2][]float64) float64 {
	return (mean(byOrder[0]) + mean(byOrder[1])) / 2
}

// ratio is a/b, or 0 when there was no work to divide by (a layer a workload
// never exercises reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
