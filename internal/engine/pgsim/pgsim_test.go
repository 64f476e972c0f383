package pgsim

import (
	"context"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/simtest"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

func encodeRows(t testing.TB, e *Engine, docs []jsonval.Value) []row {
	rows := make([]row, len(docs))
	for i, d := range docs {
		var err error
		if rows[i], err = e.encodeRow(d); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

func TestMatcherEqualsPredicateEval(t *testing.T) {
	docs := simtest.Docs(t)
	// Small schemas first: the Twitter document alone reaches the cap.
	preds := simtest.LeafPredicates([]jsonval.Value{docs[len(docs)-1], docs[40], docs[41], docs[80], docs[0]})
	if len(preds) < 300 {
		t.Fatalf("only %d predicates derived", len(preds))
	}
	// A low threshold TOASTs the Twitter rows and leaves NoBench rows plain.
	rows := encodeRows(t, New(Options{ToastThreshold: 600}), docs)
	decoded := make([]jsonval.Value, len(docs))
	var scratch []byte
	for i, r := range rows {
		var err error
		if decoded[i], err = r.decode(&scratch); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range append(preds, nil) {
		match := matcher(p, &scratch).Match
		for i, r := range rows {
			got, err := match(r)
			if err != nil {
				t.Fatalf("%v on %s: %v", p, docs[i], err)
			}
			if want := p == nil || p.Eval(decoded[i]); got != want {
				t.Fatalf("matcher(%v) = %v on %s, Predicate.Eval says %v", p, got, docs[i], want)
			}
		}
	}
}

// The lazy matcher allocates nothing per row, whatever the predicate kind
// and whichever way the row fails to match — TOASTed or not, once the
// scratch has grown to the row.
func TestMatcherAllocatesNothing(t *testing.T) {
	doc := simtest.Parse(t, simtest.RejectedDoc)
	for _, threshold := range []int{0, 64} {
		e := New(Options{ToastThreshold: threshold})
		r := encodeRows(t, e, []jsonval.Value{doc})[0]
		if r.compressed != (threshold == 64) {
			t.Fatalf("threshold %d: compressed = %v", threshold, r.compressed)
		}
		var scratch []byte
		for _, p := range simtest.Rejections() {
			match := matcher(p, &scratch).Match
			if ok, err := match(r); ok || err != nil {
				t.Fatalf("%v = %v, %v; want a clean rejection", p, ok, err)
			}
			if n := testing.AllocsPerRun(100, func() { match(r) }); n != 0 {
				t.Errorf("threshold %d, %v: %v allocs per row, want 0", threshold, p, n)
			}
		}
	}
}

func twitterEngine(t testing.TB, opts Options, n int) *Engine {
	e := New(opts)
	if err := e.ImportValues("Twitter", datasets.NewTwitter().Generate(n, 11)); err != nil {
		t.Fatal(err)
	}
	return e
}

// Once the per-Execute scratch has grown to the largest row, a detoast
// costs no allocation (the gate allows one, amortised).
func TestRowOpenReusesScratch(t *testing.T) {
	rows, err := twitterEngine(t, Options{}, 300).cat.Get("Twitter")
	if err != nil {
		t.Fatal(err)
	}
	toasted := 0
	var scratch []byte
	openAll := func() {
		for _, r := range rows {
			if _, err := r.open(&scratch); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range rows {
		if r.compressed {
			toasted++
		}
	}
	if toasted < 100 {
		t.Fatalf("only %d TOASTed rows", toasted)
	}
	openAll()
	if n := testing.AllocsPerRun(10, openAll) / float64(toasted); n > 1 {
		t.Errorf("%v allocs per detoast after warm-up, want <= 1", n)
	}
}

var scratchQueries = []*query.Query{
	{Base: "Twitter", Filter: query.And{Left: query.Exists{Path: "/user/screen_name"}, Right: query.FloatCmp{Path: "/user/followers_count", Op: query.Ge, Value: 0}}},
	{Base: "Twitter", Filter: query.Exists{Path: "/user"}, Agg: &query.Aggregation{Func: query.Count, Path: "/id", Grouped: true, GroupBy: "/user/lang"}},
	{Base: "Twitter", Filter: query.Exists{Path: "/text"}, Agg: &query.Aggregation{Func: query.Sum, Path: "/user/followers_count", Grouped: true, GroupBy: "/user/screen_name"}},
	{Base: "Twitter", Filter: query.Exists{Path: "/user/verified"}, Store: "derived"},
	{Base: "derived", Filter: query.IsString{Path: "/text"}},
}

// Every detoast lands in the same scratch, so anything an Execute keeps past
// a row — group keys, aggregated values, stored rows — must be a copy. An
// engine that TOASTs nothing (so never touches the scratch) is the
// reference.
func TestResultsDoNotAliasScratch(t *testing.T) {
	want := simtest.RunAll(context.Background(), t, twitterEngine(t, Options{ToastThreshold: 1 << 30}, 400), scratchQueries...)
	if got := simtest.RunAll(context.Background(), t, twitterEngine(t, Options{}, 400), scratchQueries...); got != want {
		t.Errorf("TOASTed rows changed the results:\n got %.400s\nwant %.400s", got, want)
	}
}

// Scratch buffers are per Execute, never per engine: concurrent queries on
// one engine see what a lone query sees (run under -race).
func TestConcurrentExecute(t *testing.T) {
	e := twitterEngine(t, Options{}, 400)
	simtest.ConcurrentExecute(context.Background(), t, e, scratchQueries[:3])
}

// The matcher resolves a leaf through jsonblite.LookupSteps on the detoasted
// bytes; a row that does not detoast or does not parse is an error, not a
// rejection.
func TestMatcherReportsCorruptRows(t *testing.T) {
	var scratch []byte
	match := matcher(query.Exists{Path: "/a"}, &scratch).Match
	for _, r := range []row{{data: []byte{0x07}}, {data: []byte{0xff, 0xff}, compressed: true}} {
		if ok, err := match(r); ok || err == nil {
			t.Errorf("corrupt row %x: match = %v, %v; want an error", r.data, ok, err)
		}
	}
	if _, err := (row{data: []byte{0x07, 1}}).decode(&scratch); err == nil {
		t.Errorf("corrupt row decoded")
	}
}

func TestConformance(t *testing.T) {
	simtest.Conformance(t, func(*testing.T, string) engine.Engine { return New(Options{}) })
}
