package mongosim

import (
	"bytes"
	"context"
	"io"
	"testing"

	"github.com/joda-explore/betze/internal/bsonlite"
	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/simtest"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

func TestMatcherEqualsPredicateEval(t *testing.T) {
	docs := simtest.Docs(t)
	// Small schemas first: the Twitter document alone reaches the cap.
	preds := simtest.LeafPredicates([]jsonval.Value{docs[len(docs)-1], docs[40], docs[41], docs[80], docs[0]})
	if len(preds) < 300 {
		t.Fatalf("only %d predicates derived", len(preds))
	}
	encoded := make([][]byte, len(docs))
	decoded := make([]jsonval.Value, len(docs))
	for i, d := range docs {
		encoded[i] = bsonlite.Encode(nil, d)
		var err error
		if decoded[i], err = bsonlite.Decode(encoded[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range append(preds, nil) {
		match := matcher(p).Match
		for i := range docs {
			got, err := match(encoded[i])
			if err != nil {
				t.Fatalf("%v on %s: %v", p, docs[i], err)
			}
			if want := p == nil || p.Eval(decoded[i]); got != want {
				t.Fatalf("matcher(%v) = %v on %s, Predicate.Eval says %v", p, got, docs[i], want)
			}
		}
	}
}

// The lazy matcher allocates nothing per document, whatever the predicate
// kind and whichever way the document fails to match.
func TestMatcherAllocatesNothing(t *testing.T) {
	encoded := bsonlite.Encode(nil, simtest.Parse(t, simtest.RejectedDoc))
	for _, p := range simtest.Rejections() {
		match := matcher(p).Match
		if ok, err := match(encoded); ok || err != nil {
			t.Fatalf("%v = %v, %v; want a clean rejection", p, ok, err)
		}
		if n := testing.AllocsPerRun(100, func() { match(encoded) }); n != 0 {
			t.Errorf("%v: %v allocs per document, want 0", p, n)
		}
	}
}

func nobenchEngine(opts Options, n int) *Engine {
	e := New(opts)
	e.ImportValues("NoBench", datasets.NewNoBench().Generate(n, 11))
	return e
}

func mustGet(t *testing.T, e *Engine, name string) *collection {
	t.Helper()
	coll, err := e.cat.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return coll
}

// Once the per-Execute scratch has grown to the largest block, opening a
// block costs no allocation (the gate allows one, amortised).
func TestBlockOpenReusesScratch(t *testing.T) {
	blocks := mustGet(t, nobenchEngine(Options{BlockSize: 8 << 10}, 2000), "NoBench").blocks
	if len(blocks) < 20 {
		t.Fatalf("only %d blocks", len(blocks))
	}
	var scratch []byte
	openAll := func() {
		for _, b := range blocks {
			if _, err := b.open(&scratch); err != nil {
				t.Fatal(err)
			}
		}
	}
	openAll()
	if n := testing.AllocsPerRun(10, openAll) / float64(len(blocks)); n > 1 {
		t.Errorf("%v allocs per block open after warm-up, want <= 1", n)
	}
}

var scratchQueries = []*query.Query{
	{Base: "NoBench", Filter: query.FloatCmp{Path: "/num", Op: query.Ge, Value: 0}},
	{Base: "NoBench", Filter: query.Exists{Path: "/str1"}, Agg: &query.Aggregation{Func: query.Count, Path: "/str1", Grouped: true, GroupBy: "/str2"}},
	{Base: "NoBench", Filter: query.BoolEq{Path: "/bool", Value: true}, Agg: &query.Aggregation{Func: query.Sum, Path: "/num", Grouped: true, GroupBy: "/nested_obj/str"}},
	{Base: "NoBench", Filter: query.HasPrefix{Path: "/str1", Prefix: "G"}, Store: "derived"},
	{Base: "derived"},
}

// Every block inflates into the same scratch, so anything an Execute keeps
// past a block — group keys, aggregated values, stored documents — must be a
// copy. An engine that never inflates (no compression, so no scratch) is the
// reference.
func TestResultsDoNotAliasScratch(t *testing.T) {
	want := simtest.RunAll(context.Background(), t, nobenchEngine(Options{BlockSize: 4 << 10, DisableCompression: true}, 1500), scratchQueries...)
	if got := simtest.RunAll(context.Background(), t, nobenchEngine(Options{BlockSize: 4 << 10}, 1500), scratchQueries...); got != want {
		t.Errorf("compressed blocks changed the results:\n got %.400s\nwant %.400s", got, want)
	}
}

// Scratch buffers are per Execute, never per engine: concurrent queries on
// one engine see what a lone query sees (run under -race).
func TestConcurrentExecute(t *testing.T) {
	e := nobenchEngine(Options{BlockSize: 4 << 10}, 1500)
	simtest.ConcurrentExecute(context.Background(), t, e, scratchQueries[:3])
}

// A store without a transform copies the matched documents' encoded bytes
// as they are: the copy's inflated blocks are the source's encoded documents,
// byte for byte, empty-key wrappers included.
func TestStoreKeepsEncodedBytes(t *testing.T) {
	docs := datasets.NewNoBench().Generate(50, 4)
	for _, s := range []string{`{"":{"a":1}}`, `{"":5}`, `{"":1,"b":2}`, `{"":{"":{"a":1}}}`, `{}`, `[1,2]`} {
		docs = append(docs, simtest.Parse(t, s))
	}
	e := New(Options{BlockSize: 1 << 10})
	e.ImportValues("base", docs)
	if _, err := e.Execute(context.Background(), &query.Query{Base: "base", Store: "copy"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, d := range docs {
		want = bsonlite.Encode(want, d)
	}
	inflate := func(coll *collection) []byte {
		var all, scratch []byte
		for _, b := range coll.blocks {
			raw, err := b.open(&scratch)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, raw...)
		}
		return all
	}
	if src := inflate(mustGet(t, e, "base")); !bytes.Equal(src, want) {
		t.Fatalf("the source holds %d bytes, its documents encode to %d", len(src), len(want))
	}
	if got := inflate(mustGet(t, e, "copy")); !bytes.Equal(got, want) {
		t.Errorf("stored %d bytes differ from the source's %d", len(got), len(want))
	}
}

func TestConformance(t *testing.T) {
	simtest.Conformance(t, func(*testing.T, string) engine.Engine { return New(Options{BlockSize: 4 << 10}) })
}
