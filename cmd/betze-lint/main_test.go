package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunCleanTree lints the real module: the tree must be clean, so the
// driver exits 0 with no text output.
func TestRunCleanTree(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"../.."}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on the module tree, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run wrote text output:\n%s", out.String())
	}
}

// TestRunViolatingModule builds a throwaway module with a determinism
// violation and checks the driver reports it and exits 1.
func TestRunViolatingModule(t *testing.T) {
	dir := t.TempDir()
	core := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(core, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), "module example.com/fixture\n\ngo 1.22\n")
	writeFile(t, filepath.Join(core, "core.go"), `package core

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`)

	var out, errOut bytes.Buffer
	if code := run([]string{dir}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d on a violating module, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "determinism") || !strings.Contains(got, "time.Now()") {
		t.Errorf("report does not name the violation:\n%s", got)
	}
	if !strings.Contains(got, "1 finding(s)") {
		t.Errorf("report lacks the summary line:\n%s", got)
	}
}

// TestRunList checks -list prints every analyzer of the default suite.
func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	for _, name := range []string{
		"closecheck", "ctxplumb", "determinism", "errwrap", "obsvocab",
		"lockbalance", "goleak", "wgdiscipline", "journalorder",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output lacks %s:\n%s", name, out.String())
		}
	}
}

// TestRunFormatJSON checks a clean -format=json run emits the literal empty
// array, and that an unknown format — or the retired -json spelling — is a
// usage error.
func TestRunFormatJSON(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-format=json", "../.."}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, errOut.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean -format=json run = %q, want []", got)
	}
	out.Reset()
	if code := run([]string{"-format=yaml", "../.."}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for unknown format, want 2", code)
	}
	if code := run([]string{"-json", "../.."}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for the retired -json flag, want 2", code)
	}
}

// violatingModule builds a throwaway module with two determinism findings.
func violatingModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	core := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(core, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), "module example.com/fixture\n\ngo 1.22\n")
	writeFile(t, filepath.Join(core, "core.go"), `package core

import "time"

func Stamp() int64 { return time.Now().UnixNano() }

func Epoch() int64 { return time.Now().Unix() }
`)
	return dir
}

// TestRunBaseline captures a JSON report as the baseline and checks the
// driver then exits 0 on the unchanged tree, still fails on a new finding,
// and reports only the new one.
func TestRunBaseline(t *testing.T) {
	dir := violatingModule(t)

	var report, errOut bytes.Buffer
	if code := run([]string{"-format=json", dir}, &report, &errOut); code != 1 {
		t.Fatalf("exit %d capturing the baseline, want 1\nstderr:\n%s", code, errOut.String())
	}
	baseline := filepath.Join(dir, "lint.baseline")
	writeFile(t, baseline, report.String())

	var out bytes.Buffer
	if code := run([]string{"-baseline", baseline, dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d with a matching baseline, want 0\nstdout:\n%s", code, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("baselined run wrote output:\n%s", out.String())
	}

	// A new violation in another file must still fail, and the report must
	// contain only the new finding.
	writeFile(t, filepath.Join(dir, "internal", "core", "extra.go"), `package core

import "time"

func Later() int64 { return time.Now().UnixNano() }
`)
	out.Reset()
	if code := run([]string{"-baseline", baseline, dir}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d with a new finding beyond the baseline, want 1", code)
	}
	got := out.String()
	if !strings.Contains(got, "extra.go") {
		t.Errorf("report lacks the new finding:\n%s", got)
	}
	if strings.Contains(got, "core.go") {
		t.Errorf("report resurfaces baselined findings:\n%s", got)
	}
	if !strings.Contains(got, "1 finding(s)") {
		t.Errorf("summary should count only the new finding:\n%s", got)
	}
}

// TestRunBaselineMissingFile checks the usage exit code for a bad path.
func TestRunBaselineMissingFile(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-baseline", filepath.Join(t.TempDir(), "nope.json"), "../.."}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for missing baseline, want 2", code)
	}
}

// TestRunUnknownAnalyzer checks the usage exit code.
func TestRunUnknownAnalyzer(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-analyzers", "nonesuch", "../.."}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d for unknown analyzer, want 2", code)
	}
	if !strings.Contains(errOut.String(), "nonesuch") {
		t.Errorf("stderr does not name the unknown analyzer:\n%s", errOut.String())
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
