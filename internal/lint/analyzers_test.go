package lint_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/joda-explore/betze/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// loadFixture loads one testdata package. LoadDir is handed a relative
// directory, so every diagnostic carries a path relative to this package —
// exactly what the golden files record.
func loadFixture(t *testing.T, rel string) *lint.Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", rel)
	pkg, err := lint.LoadDir(dir, "fixture/"+filepath.ToSlash(rel))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return pkg
}

func runFixture(t *testing.T, a lint.Analyzer, rel string) []lint.Diagnostic {
	t.Helper()
	pkg := loadFixture(t, rel)
	return lint.Run([]*lint.Package{pkg}, []lint.Analyzer{a})
}

// TestAnalyzerGolden runs each analyzer over its violating fixture and
// compares the text report against the golden file, then checks the clean
// fixture stays silent. Regenerate goldens with: go test ./internal/lint -run Golden -update
func TestAnalyzerGolden(t *testing.T) {
	cases := []struct {
		name     string
		analyzer lint.Analyzer
	}{
		// Fixture-wide scopes: each analyzer with an empty scope checks
		// every package, not just the repository paths it guards.
		{"atomicwrite", lint.NewAtomicwrite()},
		{"determinism", lint.NewDeterminism()},
		{"fsboundary", lint.NewFsboundary()},
		{"obsvocab", lint.NewObsvocab()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := runFixture(t, tc.analyzer, filepath.Join(tc.name, "bad"))
			if len(diags) == 0 {
				t.Fatal("bad fixture produced no findings")
			}
			for _, d := range diags {
				if d.Analyzer != tc.name {
					t.Errorf("finding from unexpected analyzer %q: %s", d.Analyzer, d)
				}
			}
			var buf bytes.Buffer
			if err := lint.WriteText(&buf, diags); err != nil {
				t.Fatalf("WriteText: %v", err)
			}
			golden := filepath.Join("testdata", "golden", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatalf("update golden: %v", err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("report differs from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}

			clean := runFixture(t, tc.analyzer, filepath.Join(tc.name, "clean"))
			if len(clean) != 0 {
				t.Errorf("clean fixture produced %d findings, want 0:", len(clean))
				for _, d := range clean {
					t.Errorf("  %s", d)
				}
			}
		})
	}
}
