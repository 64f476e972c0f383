package lint

import (
	"fmt"
	"io"
	"path/filepath"
)

// Relativize rewrites diagnostic file names relative to base, so reports
// (and the golden files of the analyzer tests) are stable regardless of
// where the tree is checked out. File names outside base are left alone.
func Relativize(base string, diags []Diagnostic) {
	for i := range diags {
		if rel, err := filepath.Rel(base, diags[i].Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}
}

// WriteText renders diagnostics one per line in file:line:col form,
// followed by a one-line summary. Diagnostics are assumed sorted (Run
// sorts).
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	if len(diags) > 0 {
		if _, err := fmt.Fprintf(w, "%d finding(s)\n", len(diags)); err != nil {
			return err
		}
	}
	return nil
}
