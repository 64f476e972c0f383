// Package lint is a small static-analysis framework on the standard
// library's go/ast, go/parser and go/types, purpose-built to machine-check
// four invariants this repository's correctness story rests on: seeded
// packages stay byte-deterministic, artifacts are published atomically,
// durability packages reach storage only through the errfs seam, and the
// observability vocabulary stays closed.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis at a
// distance — an Analyzer runs over one type-checked package at a time and
// reports position-tagged Diagnostics — but stays stdlib-only, as nothing
// may be installed into the build image. Findings are suppressible in
// source with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it; the reason is
// mandatory and the analyzer must belong to the suite (or be "all"), so
// every escape hatch documents itself and none outlives its analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Implementations are stateless; Run is
// called once per loaded package.
type Analyzer interface {
	// Name is the identifier used in reports and //lint:ignore comments.
	Name() string
	// Doc is a one-line description of the guarded invariant.
	Doc() string
	// Run inspects one package and reports findings through pass.Report.
	Run(pass *Pass)
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	// Analyzer names the analyzer that produced the finding.
	Analyzer string
	// Pos is the finding's position ("file:line:col" once formatted).
	Pos token.Position
	// Message states the violation and the expected idiom.
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Pass carries one package through one analyzer. Type information is
// best-effort: the loader tolerates unresolved imports (see load.go), so
// analyzers must degrade gracefully when Info has no answer for a node.
type Pass struct {
	// Pkg is the package under analysis.
	Pkg *Package
	// Analyzer is the running analyzer (set by the suite).
	Analyzer Analyzer

	diags *[]Diagnostic
}

// Report records a finding at the node's position.
func (p *Pass) Report(node ast.Node, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name(),
		Pos:      p.Pkg.Fset.Position(node.Pos()),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package, drops findings suppressed by
// //lint:ignore comments, and returns the remainder sorted by position (then
// analyzer, then message) so output is stable across runs.
func Run(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	known := map[string]bool{"all": true}
	for _, a := range Analyzers() {
		known[a.Name()] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg, known)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, Analyzer: a, diags: &pkgDiags}
			a.Run(pass)
		}
		for _, d := range pkgDiags {
			if sup.suppresses(d) {
				continue
			}
			diags = append(diags, d)
		}
		// Malformed ignore comments are findings themselves: a suppression
		// without a reason, or naming an analyzer outside the suite,
		// silently rots.
		diags = append(diags, sup.malformed...)
	}
	Sort(diags)
	return diags
}

// Sort orders diagnostics by file, line, column, analyzer, message.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// suppression is one parsed //lint:ignore comment.
type suppression struct {
	file     string
	line     int // the comment's own line
	analyzer string
}

type suppressionSet struct {
	entries   []suppression
	malformed []Diagnostic
}

// IgnorePrefix is the suppression comment marker.
const IgnorePrefix = "//lint:ignore"

// collectSuppressions parses every //lint:ignore comment of the package.
// The expected form is "//lint:ignore <analyzer> <reason>", where analyzer
// is one of known; "all" matches every analyzer. A suppression covers
// findings on its own line and on the line immediately below (so it can sit
// on its own line above a long statement, staticcheck-style).
func collectSuppressions(pkg *Package, known map[string]bool) *suppressionSet {
	set := &suppressionSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, IgnorePrefix))
				fields := strings.Fields(rest)
				var msg string
				switch {
				case len(fields) < 2:
					msg = "malformed //lint:ignore: want \"//lint:ignore <analyzer> <reason>\""
				case !known[fields[0]]:
					msg = fmt.Sprintf("//lint:ignore names unknown analyzer %q: want an analyzer of the suite or \"all\"", fields[0])
				default:
					set.entries = append(set.entries, suppression{
						file:     pos.Filename,
						line:     pos.Line,
						analyzer: fields[0],
					})
					continue
				}
				set.malformed = append(set.malformed, Diagnostic{Analyzer: "lint", Pos: pos, Message: msg})
			}
		}
	}
	return set
}

func (s *suppressionSet) suppresses(d Diagnostic) bool {
	for _, e := range s.entries {
		if e.file != d.Pos.Filename {
			continue
		}
		if e.analyzer != "all" && e.analyzer != d.Analyzer {
			continue
		}
		if d.Pos.Line == e.line || d.Pos.Line == e.line+1 {
			return true
		}
	}
	return false
}
