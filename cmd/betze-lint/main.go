// Command betze-lint runs the repository's machine-checked invariants (see
// DESIGN.md §"Machine-checked invariants") over the module tree: the
// internal/lint analyzers guarding determinism, sentinel-error wrapping,
// context plumbing, the observability vocabulary, resource release, atomic
// artifact publication, and — via the CFG/dataflow layer — lock balance,
// goroutine joinability, atomic-access consistency, WaitGroup discipline
// and the jobqueue's journal-before-memory ordering.
//
// Usage:
//
//	betze-lint [-format=text|json] [-baseline file] [-list] [-analyzers a,b,...] [dir]
//
// dir defaults to the current module root (the first parent directory with
// a go.mod). The exit code is 0 on a clean tree, 1 on findings, 2 on usage
// or load errors. -format=json emits a sorted, CI-diffable JSON array
// instead of text. -baseline reads a JSON report captured earlier
// (betze-lint -format=json > lint.baseline) and fails only on findings not
// in it, so a tree with accepted debt still gates new violations. Findings
// are suppressed in source with
//
//	//lint:ignore <analyzer> <reason>
//
// on the offending line or the line directly above it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/joda-explore/betze/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("betze-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or json")
	baselinePath := fs.String("baseline", "", "JSON report of accepted findings; fail only on findings not in it")
	list := fs.Bool("list", false, "list the analyzers and exit")
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "betze-lint: unknown -format=%s (want text or json)\n", *format)
		return 2
	}
	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *names != "" {
		subset, ok := lint.ByName(strings.Split(*names, ","))
		if !ok {
			fmt.Fprintf(stderr, "betze-lint: unknown analyzer in -analyzers=%s\n", *names)
			return 2
		}
		analyzers = subset
	}
	var baseline lint.Baseline
	if *baselinePath != "" {
		f, err := os.Open(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderr, "betze-lint: %v\n", err)
			return 2
		}
		baseline, err = lint.ReadBaseline(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "betze-lint: %v\n", err)
			return 2
		}
	}

	root := fs.Arg(0)
	if root == "" {
		root = "."
	}
	// "./..." is accepted as an alias for the root itself: the loader always
	// walks the whole package tree below the module root.
	root = strings.TrimSuffix(root, "...")
	root = strings.TrimSuffix(root, string(filepath.Separator))
	if root == "" || root == "." {
		root = "."
	}
	moduleRoot, err := findModuleRoot(root)
	if err != nil {
		fmt.Fprintf(stderr, "betze-lint: %v\n", err)
		return 2
	}
	pkgs, err := lint.Load(moduleRoot)
	if err != nil {
		fmt.Fprintf(stderr, "betze-lint: %v\n", err)
		return 2
	}
	diags := lint.Run(pkgs, analyzers)
	lint.Relativize(moduleRoot, diags)
	diags = lint.FilterBaseline(diags, baseline)
	if *format == "json" {
		if err := lint.WriteJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "betze-lint: %v\n", err)
			return 2
		}
	} else if err := lint.WriteText(stdout, diags); err != nil {
		fmt.Fprintf(stderr, "betze-lint: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// findModuleRoot walks upward from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no go.mod at or above %s", abs)
		}
	}
}
