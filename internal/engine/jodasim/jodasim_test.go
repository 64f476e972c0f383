package jodasim

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/simtest"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
)

var ctx = context.Background()

// results runs the queries and returns what they wrote, without statistics.
func results(t *testing.T, e *Engine, qs ...*query.Query) string {
	t.Helper()
	var out bytes.Buffer
	for _, q := range qs {
		if _, err := e.Execute(ctx, q, &out); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return out.String()
}

// TestMatchesPredicateEval: for predicates of every kind over every document
// shape simtest knows, a scan — compiled, sharded, cached — returns exactly
// the documents Predicate.Eval accepts, in order.
func TestMatchesPredicateEval(t *testing.T) {
	docs := simtest.Docs(t)
	preds := simtest.LeafPredicates([]jsonval.Value{docs[len(docs)-1], docs[40], docs[41], docs[80], docs[0]})
	if len(preds) < 300 {
		t.Fatalf("only %d predicates derived", len(preds))
	}
	for _, opts := range []Options{{}, {DisableCache: true, Threads: 3}} {
		e := New(opts)
		e.ImportValues("docs", docs)
		for _, p := range preds {
			var want []byte
			for _, d := range docs {
				if p.Eval(d) {
					want = append(jsonval.AppendJSON(want, d), '\n')
				}
			}
			if got := results(t, e, &query.Query{Base: "docs", Filter: p}); got != string(want) {
				t.Fatalf("%+v: %v returned %d bytes, Predicate.Eval selects %d", opts, p, len(got), len(want))
			}
		}
	}
}

func TestRejections(t *testing.T) {
	e := New(Options{})
	e.ImportValues("one", []jsonval.Value{simtest.Parse(t, simtest.RejectedDoc)})
	for _, p := range simtest.Rejections() {
		stats, err := e.Execute(ctx, &query.Query{Base: "one", Filter: p}, &bytes.Buffer{})
		if err != nil || stats.Matched != 0 || stats.Scanned != 1 {
			t.Errorf("%v: %+v, %v; want a clean rejection of the one document", p, stats, err)
		}
	}
}

var nobenchQueries = []*query.Query{
	{Base: "NoBench", Filter: query.FloatCmp{Path: "/num", Op: query.Ge, Value: 0}},
	{Base: "NoBench", Filter: query.IntEq{Path: "/thousandth", Value: 7}},
	{Base: "NoBench", Filter: query.Exists{Path: "/str1"}, Agg: &query.Aggregation{Func: query.Count, Path: "/str1", Grouped: true, GroupBy: "/str2"}},
	{Base: "NoBench", Filter: query.BoolEq{Path: "/bool", Value: true}, Agg: &query.Aggregation{Func: query.Sum, Path: "/num", Grouped: true, GroupBy: "/nested_obj/str"}},
	{Base: "NoBench", Filter: query.HasPrefix{Path: "/str1", Prefix: "G"}, Store: "derived"},
	{Base: "derived"},
	{Base: "NoBench", Filter: query.And{Left: query.HasPrefix{Path: "/str1", Prefix: "G"}, Right: query.BoolEq{Path: "/bool", Value: false}}},
}

func nobenchFile(t *testing.T, n int) (path string, docs []jsonval.Value) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "nobench.json")
	if err := datasets.NewNoBench().WriteFile(path, n, 11); err != nil {
		t.Fatal(err)
	}
	return path, datasets.NewNoBench().Generate(n, 11)
}

func importFile(t *testing.T, opts Options, path string) *Engine {
	t.Helper()
	e := New(opts)
	if stats, err := e.ImportFile(ctx, "NoBench", path); err != nil || stats.Docs == 0 {
		t.Fatalf("ImportFile: %+v, %v", stats, err)
	}
	return e
}

// TestImportFileEqualsImportValues: documents decoded from a file (one
// Decoder, so slab-backed values with interned keys) and the same documents
// built by the generator answer every query alike — results and ExecStats.
func TestImportFileEqualsImportValues(t *testing.T) {
	path, docs := nobenchFile(t, 1500)
	fromValues := New(Options{})
	fromValues.ImportValues("NoBench", docs)
	want := simtest.RunAll(ctx, t, fromValues, nobenchQueries...)
	if got := simtest.RunAll(ctx, t, importFile(t, Options{}, path), nobenchQueries...); got != want {
		t.Errorf("ImportFile and ImportValues disagree:\n got %.300s\nwant %.300s", got, want)
	}
}

// TestEvictedEqualsResident: re-parsing the retained bytes before every query
// (one parser per worker) changes no result and no statistic of a
// cache-less resident engine, and a cached one returns the same documents.
func TestEvictedEqualsResident(t *testing.T) {
	path, _ := nobenchFile(t, 1500)
	want := simtest.RunAll(ctx, t, importFile(t, Options{DisableCache: true}, path), nobenchQueries...)
	if got := simtest.RunAll(ctx, t, importFile(t, Options{Evict: true, Threads: 3}, path), nobenchQueries...); got != want {
		t.Errorf("eviction changed results or statistics:\n got %.300s\nwant %.300s", got, want)
	}
	if results(t, importFile(t, Options{}, path), nobenchQueries...) != results(t, importFile(t, Options{Evict: true}, path), nobenchQueries...) {
		t.Error("evicted and cached engines return different documents")
	}
}

// TestConcurrentExecute runs under -race: per-worker evaluators, the shared
// result cache and the evicted engine's per-worker parsers belong to one Execute
// at a time or are locked.
func TestConcurrentExecute(t *testing.T) {
	path, _ := nobenchFile(t, 1500)
	simtest.ConcurrentExecute(ctx, t, importFile(t, Options{DisableCache: true}, path), nobenchQueries[:4])
	simtest.ConcurrentExecute(ctx, t, importFile(t, Options{Evict: true}, path), nobenchQueries[:4])
	cached := importFile(t, Options{}, path)
	results(t, cached, nobenchQueries[:4]...) // fill the cache: a hit scans fewer documents than a miss
	simtest.ConcurrentExecute(ctx, t, cached, nobenchQueries[:4])
}

// TestCachedSubsetOutlivesItsDecoder: a cached result is a slice of values
// pointing into the importing Decoder's slabs. The Decoder is gone when
// ImportFile returns; collections and further imports in between must leave
// the subset intact for the follow-up query that starts from it.
func TestCachedSubsetOutlivesItsDecoder(t *testing.T) {
	path, docs := nobenchFile(t, 1500)
	e := importFile(t, Options{}, path)
	first := query.HasPrefix{Path: "/str1", Prefix: "G"}
	followUp := query.And{Left: first, Right: query.FloatCmp{Path: "/num", Op: query.Lt, Value: 50000}}
	results(t, e, &query.Query{Base: "NoBench", Filter: first})
	for i := 0; i < 3; i++ {
		if _, err := e.ImportFile(ctx, "churn", path); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
	}
	var want []byte
	for _, d := range docs {
		if followUp.Eval(d) {
			want = append(jsonval.AppendJSON(want, d), '\n')
		}
	}
	if got := results(t, e, &query.Query{Base: "NoBench", Filter: followUp}); got != string(want) || len(want) == 0 {
		t.Errorf("follow-up from the cached subset returned %d bytes, want %d", len(got), len(want))
	}
	if e.CacheHits() != 1 {
		t.Errorf("%d cache hits, want the follow-up to start from the cached subset", e.CacheHits())
	}
}

// TestCacheKeyIsInjective: a path may contain the quote and operator text
// Predicate.String puts around paths, so two different filters can render
// alike. The second must not be answered from the first one's cached result.
func TestCacheKeyIsInjective(t *testing.T) {
	docs := []jsonval.Value{
		simtest.Parse(t, `{"x' == 1 && '":{"y":2},"z":3}`),
		simtest.Parse(t, `{"x":1,"y' == 2 && '":{"z":3}}`),
	}
	p1 := query.And{Left: query.IntEq{Path: "/x' == 1 && '/y", Value: 2}, Right: query.IntEq{Path: "/z", Value: 3}}
	p2 := query.And{Left: query.IntEq{Path: "/x", Value: 1}, Right: query.IntEq{Path: "/y' == 2 && '/z", Value: 3}}
	if p1.String() != p2.String() {
		t.Fatalf("premise: %s and %s should render alike", p1, p2)
	}
	e := New(Options{})
	e.ImportValues("d", docs)
	for i, p := range []query.Predicate{p1, p2} {
		want := string(jsonval.AppendJSON(nil, docs[i])) + "\n"
		if got := results(t, e, &query.Query{Base: "d", Filter: p}); got != want {
			t.Errorf("%s (%#v) returned %q, want %q", p, p, got, want)
		}
	}
	if e.CacheHits() != 0 {
		t.Errorf("%d cache hits, want none between two different filters", e.CacheHits())
	}
}

// TestAppendKey: predicates that differ (in Go syntax) get different cache
// keys, and a left-deep AND chain's key starts with its left operand's, the
// property resolve's one-pass rendering of the chain's prefixes relies on.
func TestAppendKey(t *testing.T) {
	docs := simtest.Docs(t)
	preds := simtest.LeafPredicates([]jsonval.Value{docs[0], docs[40]})
	seen := map[string]string{}
	for i, p := range preds {
		and := query.And{Left: preds[(i+1)%len(preds)], Right: p}
		for _, q := range []query.Predicate{p, and, query.Or{Left: and, Right: p}} {
			key, syntax := string(appendKey(nil, q)), fmt.Sprintf("%#v", q)
			if prev, ok := seen[key]; ok && prev != syntax {
				t.Errorf("key %q shared by %s and %s", key, prev, syntax)
			}
			seen[key] = syntax
		}
		if key, left := appendKey(nil, and), appendKey(nil, and.Left); !bytes.HasPrefix(key, left) {
			t.Errorf("key %q of %s does not start with its left operand's %q", key, and, left)
		}
	}
}

// TestDerivedBaseBypassesCache: resolve never consults the cache for a
// stored dataset, so queries on one must neither pin their result under a
// key nobody reads nor report a miss for a lookup that never happened —
// while the same filter on the base dataset still caches and hits.
func TestDerivedBaseBypassesCache(t *testing.T) {
	reg := obs.NewRegistry()
	ctx := obs.With(ctx, obs.Scope{Metrics: reg})
	e := New(Options{})
	e.ImportValues("NoBench", datasets.NewNoBench().Generate(600, 11))
	misses := reg.Counter(obs.EngineMetric(e.Name(), obs.EMCacheMisses))
	run := func(q *query.Query) {
		t.Helper()
		if _, err := e.Execute(ctx, q, io.Discard); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	onDerived := query.BoolEq{Path: "/bool", Value: true}
	run(&query.Query{Base: "NoBench", Filter: query.HasPrefix{Path: "/str1", Prefix: "G"}, Store: "derived"})
	if misses.Value() != 1 {
		t.Fatalf("%d cache misses after the first query on the base dataset, want 1", misses.Value())
	}
	run(&query.Query{Base: "derived", Filter: onDerived})
	run(&query.Query{Base: "derived", Filter: onDerived, Store: "derived2"})
	if n, err := e.CountMatching("derived2", onDerived); err != nil || n == 0 {
		t.Fatalf("CountMatching on a stored dataset = %d, %v", n, err)
	}
	for _, name := range []string{"derived", "derived2"} {
		if ds, err := e.cat.Get(name); err != nil || len(ds.cache) != 0 {
			t.Errorf("stored dataset %s: %v, cache %v; want no cached results", name, err, ds.cache)
		}
	}
	if misses.Value() != 1 || e.CacheHits() != 0 {
		t.Errorf("queries on stored datasets moved the cache counters: %d misses, %d hits", misses.Value(), e.CacheHits())
	}
	run(&query.Query{Base: "NoBench", Filter: query.HasPrefix{Path: "/str1", Prefix: "G"}})
	if e.CacheHits() != 1 {
		t.Errorf("%d cache hits, want the repeated base query served from the cache", e.CacheHits())
	}
}

// TestConformance runs the engine contract on a resident and an evicting
// engine.
func TestConformance(t *testing.T) {
	simtest.Conformance(t, func(*testing.T, string) engine.Engine { return New(Options{Threads: 2}) })
	t.Run("evict", func(t *testing.T) {
		simtest.Conformance(t, func(*testing.T, string) engine.Engine { return New(Options{Threads: 2, Evict: true}) })
	})
}
