package harness

import (
	"context"
	"testing"

	"github.com/joda-explore/betze/internal/loadgen"
)

// TestLoadGenDeterministic is the loadgen experiment's contract: under
// DetTiming the open-loop verdict table is a pure function of the seed
// (virtual-time scheduler over work-counter service times), so two runs on
// fresh environments render byte-identical text; and the knee-relative
// probing shows what the experiment exists to show — every engine's block
// walks from a passing row to a failing one, with one bursty row.
func TestLoadGenDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the loadgen experiment twice at 2000 documents")
	}
	runOnce := func() *Result {
		cfg := tinyConfig(t)
		cfg.TwitterDocs = 2000
		cfg.DetTiming = true
		env, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		res, err := LoadGen(context.Background(), env)
		if err != nil {
			t.Fatalf("LoadGen: %v", err)
		}
		return res
	}
	res := runOnce()
	if a, b := res.Text(), runOnce().Text(); a != b {
		t.Fatalf("two DetTiming runs differ:\n--- first\n%s--- second\n%s", a, b)
	}

	// Columns: engine, arrivals, …, verdict (last).
	type tally struct{ bursty, pass, fail int }
	perEngine := map[string]tally{}
	for _, row := range res.Tables[0].Rows {
		tl := perEngine[row[0]]
		if row[1] == loadgen.Bursty {
			tl.bursty++
		}
		switch row[len(row)-1] {
		case "pass":
			tl.pass++
		case "FAIL":
			tl.fail++
		default:
			t.Errorf("row %v: verdict %q is neither pass nor FAIL", row, row[len(row)-1])
		}
		perEngine[row[0]] = tl
	}
	if len(perEngine) != 3 {
		t.Errorf("table covers %d engines, want 3", len(perEngine))
	}
	for name, tl := range perEngine {
		if tl.bursty != 1 {
			t.Errorf("%s: %d bursty rows, want 1", name, tl.bursty)
		}
		if tl.pass == 0 || tl.fail == 0 {
			t.Errorf("%s: %d pass / %d FAIL rows, want at least one of each (probing around the knee)",
				name, tl.pass, tl.fail)
		}
	}
}
