package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunCleanTree lints a throwaway module whose one time.Now call carries
// a reasoned suppression: run exits 0 with no text output.
func TestRunCleanTree(t *testing.T) {
	dir := tempModule(t, `package core

import "time"

func Stamp() int64 {
	return time.Now().UnixNano() //lint:ignore determinism fixture exercises the clean exit path
}
`)
	var out, errOut bytes.Buffer
	if code := run([]string{dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on a clean module, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run wrote text output:\n%s", out.String())
	}
}

// TestRunViolatingModule builds a throwaway module with a determinism
// violation and checks the driver reports it and exits 1.
func TestRunViolatingModule(t *testing.T) {
	dir := tempModule(t, `package core

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

// TestRunList checks -list prints exactly the default suite, in order.
func TestRunList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"atomicwrite", "determinism", "fsboundary", "obsvocab"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list names %v, want %v:\n%s", got, want, out.String())
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

// tempModule writes a throwaway module whose internal/core package — a
// determinism-scoped path — holds the given source.
func tempModule(t *testing.T, coreSrc string) string {
	t.Helper()
	dir := t.TempDir()
	core := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(core, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(dir, "go.mod"), "module example.com/fixture\n\ngo 1.22\n")
	writeFile(t, filepath.Join(core, "core.go"), coreSrc)
	return dir
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
