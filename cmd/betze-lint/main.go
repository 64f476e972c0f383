// Command betze-lint runs the repository's machine-checked invariants (see
// DESIGN.md §"Machine-checked invariants") over the module tree: the four
// internal/lint analyzers guarding seeded determinism, atomic artifact
// publication, the durability packages' errfs storage seam and the
// observability vocabulary.
//
// Usage:
//
//	betze-lint [-list] [-analyzers a,b,...] [dir]
//
// dir defaults to the current module root (the first parent directory with
// a go.mod). The exit code is 0 on a clean tree, 1 on findings, 2 on usage
// or load errors. Findings are suppressed in source with
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
	list := fs.Bool("list", false, "list the analyzers and exit")
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	if err := fs.Parse(args); err != nil {
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
	if err := lint.WriteText(stdout, diags); err != nil {
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
