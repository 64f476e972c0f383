package lint_test

import (
	"bytes"
	"go/token"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/lint"
)

// TestSuppression checks the //lint:ignore machinery over the suppress
// fixture: same-line and line-above suppressions drop their findings, an
// unsuppressed violation survives, and a reason-less ignore is reported as
// malformed while suppressing nothing, as is an ignore naming an unknown
// analyzer.
func TestSuppression(t *testing.T) {
	diags := runFixture(t, lint.NewDeterminism(), "suppress")

	type want struct {
		analyzer string
		line     int
	}
	wants := []want{
		{"determinism", 21}, // Unsuppressed()
		{"lint", 27},        // the malformed ignore comment itself
		{"determinism", 28}, // the finding the malformed ignore fails to cover
		{"lint", 32},        // the ignore naming an unknown analyzer
	}
	if len(diags) != len(wants) {
		t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(wants), render(diags))
	}
	for i, w := range wants {
		if diags[i].Analyzer != w.analyzer || diags[i].Pos.Line != w.line {
			t.Errorf("finding %d = %s (%s), want line %d (%s)",
				i, diags[i].Pos, diags[i].Analyzer, w.line, w.analyzer)
		}
	}
	if !strings.Contains(diags[1].Message, "malformed") {
		t.Errorf("lint finding should flag the malformed ignore, got: %s", diags[1].Message)
	}
}

// TestUnknownAnalyzerSuppression checks that an ignore naming an analyzer
// outside the suite — a retired one, or a typo — is reported whichever
// analyzers run, instead of silently exempting nothing.
func TestUnknownAnalyzerSuppression(t *testing.T) {
	var found bool
	for _, d := range runFixture(t, lint.NewObsvocab(), "suppress") {
		if d.Analyzer == "lint" && d.Pos.Line == 32 {
			found = strings.Contains(d.Message, `unknown analyzer "nonesuch"`)
			if !found {
				t.Errorf("finding at the unknown-analyzer ignore does not name it: %s", d.Message)
			}
		}
	}
	if !found {
		t.Error("ignore naming an unknown analyzer was accepted silently")
	}
}

// TestIgnoreDoesNotLeakAcrossAnalyzers runs a different analyzer over the
// suppress fixture, whose valid ignores name "determinism". The fixture has
// no atomicwrite findings, so this only asserts the determinism ignores
// don't leak across analyzers.
func TestIgnoreDoesNotLeakAcrossAnalyzers(t *testing.T) {
	diags := runFixture(t, lint.NewAtomicwrite(), "suppress")
	for _, d := range diags {
		if d.Analyzer == "atomicwrite" {
			t.Errorf("unexpected atomicwrite finding in suppress fixture: %s", d)
		}
	}
}

// TestRunStable checks that two runs over the same fixture produce
// byte-identical reports.
func TestRunStable(t *testing.T) {
	render := func() string {
		diags := runFixture(t, lint.NewDeterminism(), "determinism/bad")
		var text bytes.Buffer
		if err := lint.WriteText(&text, diags); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		return text.String()
	}
	if t1, t2 := render(), render(); t1 != t2 {
		t.Errorf("report unstable:\n--- first ---\n%s--- second ---\n%s", t1, t2)
	}
}

// TestSortOrder checks the diagnostic ordering contract directly.
func TestSortOrder(t *testing.T) {
	at := func(file string, line, col int) token.Position {
		return token.Position{Filename: file, Line: line, Column: col}
	}
	diags := []lint.Diagnostic{
		{Pos: at("b.go", 1, 1), Analyzer: "x", Message: "m"},
		{Pos: at("a.go", 2, 1), Analyzer: "x", Message: "m"},
		{Pos: at("a.go", 1, 5), Analyzer: "x", Message: "m"},
		{Pos: at("a.go", 1, 1), Analyzer: "y", Message: "m"},
		{Pos: at("a.go", 1, 1), Analyzer: "x", Message: "n"},
		{Pos: at("a.go", 1, 1), Analyzer: "x", Message: "m"},
	}
	lint.Sort(diags)
	got := render(diags)
	want := "a.go:1:1: x: m\n" +
		"a.go:1:1: x: n\n" +
		"a.go:1:1: y: m\n" +
		"a.go:1:5: x: m\n" +
		"a.go:2:1: x: m\n" +
		"b.go:1:1: x: m\n"
	if got != want {
		t.Errorf("sort order:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestByName checks suite lookup by analyzer name.
func TestByName(t *testing.T) {
	as, ok := lint.ByName([]string{"obsvocab", "determinism"})
	if !ok || len(as) != 2 || as[0].Name() != "obsvocab" || as[1].Name() != "determinism" {
		t.Errorf("ByName(obsvocab, determinism) = %v, %v", as, ok)
	}
	if _, ok := lint.ByName([]string{"nonesuch"}); ok {
		t.Error("ByName(nonesuch) should fail")
	}
}

// render formats diagnostics one per line without the summary footer.
func render(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}
