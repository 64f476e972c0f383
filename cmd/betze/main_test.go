package main

import (
	"bytes"

	"github.com/joda-explore/betze/internal/core"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd drives the CLI in-process.
func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

func TestFullCLIFlow(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "tw.json")
	analysis := filepath.Join(dir, "analysis.json")
	sessionDir := filepath.Join(dir, "session")

	out, err := runCmd(t, "dataset", "-kind", "twitter", "-n", "800", "-seed", "5", "-out", data)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	if !strings.Contains(out, "800") {
		t.Errorf("dataset output: %q", out)
	}

	out, err = runCmd(t, "analyze", "-in", data, "-name", "Twitter", "-out", analysis)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if !strings.Contains(out, "analyzed 800 documents") {
		t.Errorf("analyze output: %q", out)
	}

	out, err = runCmd(t, "generate", "-analysis", analysis, "-out", sessionDir,
		"-seed", "123", "-preset", "expert", "-verify", data, "-aggregate", "-group-by")
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if !strings.Contains(out, "generated 5 queries") {
		t.Errorf("generate output: %q", out)
	}
	for _, f := range []string{"session.json", "session.dot", "queries.joda", "queries.jq", "queries.mongodb", "queries.postgres"} {
		if _, err := os.Stat(filepath.Join(sessionDir, f)); err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
		}
	}

	out, err = runCmd(t, "run", "-session", filepath.Join(sessionDir, "session.json"),
		"-data", data, "-systems", "joda,mongodb,postgres,jq", "-timeout", "1m")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, sys := range []string{"JODA", "MongoDB", "PostgreSQL", "jq"} {
		if !strings.Contains(out, sys) {
			t.Errorf("run output missing %s:\n%s", sys, out)
		}
	}
	if !strings.Contains(out, "total w/o import") {
		t.Errorf("run output missing summary:\n%s", out)
	}
}

func TestGenerateSeedDeterminism(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "nb.json")
	analysis := filepath.Join(dir, "a.json")
	if _, err := runCmd(t, "dataset", "-kind", "nobench", "-n", "500", "-seed", "2", "-out", data); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "analyze", "-in", data, "-out", analysis); err != nil {
		t.Fatal(err)
	}
	gen := func(sub string) string {
		out := filepath.Join(dir, sub)
		if _, err := runCmd(t, "generate", "-analysis", analysis, "-out", out, "-seed", "77", "-verify", data); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(out, "queries.joda"))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if gen("s1") != gen("s2") {
		t.Errorf("same seed produced different query files")
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"dataset", "-kind", "excel", "-out", "/tmp/x.json"},
		{"dataset"}, // missing -out
		{"analyze"},
		{"generate"},
		{"run"},
		{"run", "-session", "/missing.json", "-data", "/missing.json"},
	}
	for _, args := range cases {
		if _, err := runCmd(t, args...); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunUnknownSystem(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "d.json")
	analysis := filepath.Join(dir, "a.json")
	sess := filepath.Join(dir, "s")
	if _, err := runCmd(t, "dataset", "-kind", "reddit", "-n", "200", "-out", data); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "analyze", "-in", data, "-out", analysis); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "generate", "-analysis", analysis, "-out", sess, "-verify", data); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "run", "-session", filepath.Join(sess, "session.json"), "-data", data, "-systems", "oracle"); err == nil {
		t.Errorf("unknown system accepted")
	}
}

func TestPostgresRejectsRedditViaCLI(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "reddit.json")
	analysis := filepath.Join(dir, "a.json")
	sess := filepath.Join(dir, "s")
	// Force the NUL bodies in.
	if _, err := runCmd(t, "dataset", "-kind", "reddit", "-n", "300", "-null-fraction", "0.01", "-out", data); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "analyze", "-in", data, "-out", analysis); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "generate", "-analysis", analysis, "-out", sess, "-verify", data); err != nil {
		t.Fatal(err)
	}
	out, err := runCmd(t, "run", "-session", filepath.Join(sess, "session.json"), "-data", data, "-systems", "postgres")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "could not load dataset") {
		t.Errorf("PostgreSQL load failure not reported:\n%s", out)
	}
}

func TestRunMultiDataset(t *testing.T) {
	dir := t.TempDir()
	dataA := filepath.Join(dir, "a.json")
	dataB := filepath.Join(dir, "b.json")
	analysisA := filepath.Join(dir, "aa.json")
	analysisB := filepath.Join(dir, "ab.json")
	sess := filepath.Join(dir, "s")
	if _, err := runCmd(t, "dataset", "-kind", "nobench", "-n", "400", "-seed", "1", "-out", dataA); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "dataset", "-kind", "reddit", "-n", "400", "-seed", "2", "-out", dataB); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "analyze", "-in", dataA, "-name", "A", "-out", analysisA); err != nil {
		t.Fatal(err)
	}
	if _, err := runCmd(t, "analyze", "-in", dataB, "-name", "B", "-out", analysisB); err != nil {
		t.Fatal(err)
	}
	// Generate against A only (the CLI takes one analysis file), then run
	// with an explicit name=path mapping to exercise the resolver.
	if _, err := runCmd(t, "generate", "-analysis", analysisA, "-out", sess, "-seed", "3", "-verify", dataA); err != nil {
		t.Fatal(err)
	}
	out, err := runCmd(t, "run", "-session", filepath.Join(sess, "session.json"),
		"-data", "A="+dataA, "-systems", "joda")
	if err != nil {
		t.Fatalf("run with mapping: %v", err)
	}
	if !strings.Contains(out, "import A:") {
		t.Errorf("mapped import not reported:\n%s", out)
	}
	// Extra mappings are imported too, in name order on every run.
	for i := 0; i < 8; i++ {
		out, err := runCmd(t, "run", "-session", filepath.Join(sess, "session.json"),
			"-data", "B="+dataB+",A="+dataA, "-systems", "joda")
		if err != nil {
			t.Fatalf("run with two mappings: %v", err)
		}
		a, b := strings.Index(out, "import A:"), strings.Index(out, "import B:")
		if a < 0 || b < 0 || a > b {
			t.Fatalf("run %d: imports not in name order:\n%s", i, out)
		}
	}
	// A mapping that misses the root dataset must fail clearly.
	if _, err := runCmd(t, "run", "-session", filepath.Join(sess, "session.json"),
		"-data", "WRONG="+dataA, "-systems", "joda"); err == nil {
		t.Errorf("missing dataset mapping accepted")
	}
	if _, err := runCmd(t, "run", "-session", filepath.Join(sess, "session.json"),
		"-data", "malformed,pairs", "-systems", "joda"); err == nil {
		t.Errorf("malformed -data pairs accepted")
	}
}

func TestGenerateMultiAnalysis(t *testing.T) {
	dir := t.TempDir()
	dataA := filepath.Join(dir, "a.json")
	dataB := filepath.Join(dir, "b.json")
	analysisA := filepath.Join(dir, "aa.json")
	analysisB := filepath.Join(dir, "ab.json")
	sess := filepath.Join(dir, "s")
	for _, step := range [][]string{
		{"dataset", "-kind", "nobench", "-n", "400", "-seed", "1", "-out", dataA},
		{"dataset", "-kind", "twitter", "-n", "400", "-seed", "2", "-out", dataB},
		{"analyze", "-in", dataA, "-name", "A", "-out", analysisA},
		{"analyze", "-in", dataB, "-name", "B", "-out", analysisB},
	} {
		if _, err := runCmd(t, step...); err != nil {
			t.Fatalf("%v: %v", step, err)
		}
	}
	out, err := runCmd(t, "generate",
		"-analysis", analysisA+","+analysisB,
		"-out", sess, "-seed", "4", "-preset", "novice",
		"-verify", "A="+dataA+",B="+dataB)
	if err != nil {
		t.Fatalf("multi-analysis generate: %v", err)
	}
	if !strings.Contains(out, "generated 20 queries") {
		t.Errorf("output: %q", out)
	}
	// The session must reference both datasets with overwhelming
	// probability (novice, beta=0.3, 20 queries over 2 roots).
	file, err := core.ReadSessionFile(filepath.Join(sess, "session.json"))
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{}
	for _, q := range file.Queries {
		roots[q.Base] = true
	}
	if len(roots) < 2 {
		t.Logf("only one root explored (unlikely but possible): %v", roots)
	}
	// And the run command demands a full mapping.
	if _, err := runCmd(t, "run", "-session", filepath.Join(sess, "session.json"),
		"-data", dataA, "-systems", "joda"); err == nil && len(roots) > 1 {
		t.Errorf("bare -data accepted for a multi-dataset session")
	}
	if _, err := runCmd(t, "run", "-session", filepath.Join(sess, "session.json"),
		"-data", "A="+dataA+",B="+dataB, "-systems", "joda"); err != nil {
		t.Errorf("mapped multi-dataset run failed: %v", err)
	}
}
