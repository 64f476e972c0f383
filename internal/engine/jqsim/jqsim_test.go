package jqsim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/simtest"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

var ctx = context.Background()

// box parses a document the way Execute does: encoding/json into any.
func box(t *testing.T, doc jsonval.Value) any {
	t.Helper()
	var boxed any
	if err := json.Unmarshal(jsonval.AppendJSON(nil, doc), &boxed); err != nil {
		t.Fatal(err)
	}
	return boxed
}

// TestMatcherEqualsPredicateEval: the shared lazy leaf table over boxed
// values accepts exactly the documents Predicate.Eval accepts on their typed
// form — for every leaf kind and AND/OR trees over simtest's documents, for
// absent paths, the root path, JSON null members and paths that run through
// scalars and arrays.
func TestMatcherEqualsPredicateEval(t *testing.T) {
	docs := simtest.Docs(t)
	docs = append(docs, simtest.Parse(t, `{"a":null,"b":{"c":null,"d":[null]},"user":null}`))
	sample := []jsonval.Value{docs[len(docs)-1], docs[len(docs)-2], docs[40], docs[41], docs[80], docs[0]}
	preds := simtest.LeafPredicates(sample)
	if len(preds) < 300 {
		t.Fatalf("only %d predicates derived", len(preds))
	}
	// Root predicates whose constants fit documents outside the sample: the
	// bare 7 and the empty object.
	preds = append(preds, nil,
		query.Exists{Path: jsonval.RootPath}, query.IsString{Path: jsonval.RootPath},
		query.IntEq{Path: jsonval.RootPath, Value: 7}, query.FloatCmp{Path: jsonval.RootPath, Op: query.Ge, Value: 7},
		query.ObjSize{Path: jsonval.RootPath, Op: query.Eq, Value: 0}, query.ArrSize{Path: jsonval.RootPath, Op: query.Ge, Value: 0},
		query.Or{Left: query.ObjSize{Path: jsonval.RootPath, Op: query.Gt, Value: 3}, Right: query.Exists{Path: "/user/name"}})
	boxed := make([]any, len(docs))
	for i, d := range docs {
		boxed[i] = box(t, d)
	}
	for _, p := range preds {
		match := matcher(p)
		for i := range docs {
			got, err := match(boxed[i])
			if err != nil {
				t.Fatalf("%v on %s: %v", p, docs[i], err)
			}
			if want := p == nil || p.Eval(toValue(boxed[i])); got != want {
				t.Fatalf("matcher(%v) = %v on %s, Predicate.Eval says %v", p, got, docs[i], want)
			}
		}
	}
}

// engineOn returns an engine over a fresh workdir with docs imported as name.
func engineOn(t *testing.T, name string, docs ...jsonval.Value) *Engine {
	t.Helper()
	dir := t.TempDir()
	var raw []byte
	for _, d := range docs {
		raw = append(jsonval.AppendJSON(raw, d), '\n')
	}
	path := filepath.Join(dir, name+".src")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if _, err := e.ImportFile(ctx, name, path); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRejections(t *testing.T) {
	e := engineOn(t, "one", simtest.Parse(t, simtest.RejectedDoc))
	for _, p := range simtest.Rejections() {
		stats, err := e.Execute(ctx, &query.Query{Base: "one", Filter: p}, io.Discard)
		if err != nil || stats.Matched != 0 || stats.Scanned != 1 {
			t.Errorf("%v: %+v, %v; want a clean rejection of the one document", p, stats, err)
		}
	}
}

// Everything an Execute touches but the name registry belongs to that call,
// store files included: each is written under its own temporary name (run
// under -race).
func TestConcurrentExecute(t *testing.T) {
	e := engineOn(t, "NoBench", datasets.NewNoBench().Generate(600, 11)...)
	simtest.ConcurrentExecute(ctx, t, e, []*query.Query{
		{Base: "NoBench", Filter: query.FloatCmp{Path: "/num", Op: query.Ge, Value: 0}},
		{Base: "NoBench", Filter: query.Exists{Path: "/str1"}, Agg: &query.Aggregation{Func: query.Count, Path: "/str1", Grouped: true, GroupBy: "/str2"}},
		{Base: "NoBench", Filter: query.BoolEq{Path: "/bool", Value: true}, Agg: &query.Aggregation{Func: query.Sum, Path: "/num", Grouped: true, GroupBy: "/nested_obj/str"}},
		{Base: "NoBench", Filter: query.HasPrefix{Path: "/str1", Prefix: "G"}, Store: "derived"},
		{Base: "derived"},
	})
}

// TestStoresLeaveForeignFilesAlone: a file in the workdir that the engine
// did not write — here an imported source named like a store file — is
// never written over by a store of any name, nor deleted by a re-store,
// Reset or Close.
func TestStoresLeaveForeignFilesAlone(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "ds.json")
	var raw []byte
	for _, d := range datasets.NewNoBench().Generate(50, 4) {
		raw = append(jsonval.AppendJSON(raw, d), '\n')
	}
	if err := os.WriteFile(src, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ImportFile(ctx, "ds", src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Execute(ctx, &query.Query{Base: "ds", Filter: query.Exists{Path: "/nope"}, Store: "ds"}, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Reset(); err != nil {
		t.Fatal(err)
	}
	if stats, err := e.Execute(ctx, &query.Query{Base: "ds"}, io.Discard); err != nil || stats.Scanned != 50 {
		t.Errorf("after Reset the import reads %+v, %v; want its 50 documents", stats, err)
	}
	e.Close()
	if got, err := os.ReadFile(src); err != nil || !bytes.Equal(got, raw) {
		t.Errorf("source file: %d of %d bytes, %v", len(got), len(raw), err)
	}
}

// TestOutputIsMarshalPlusNewline pins the bytes jq prints. Execute streams
// every matched document through one json.Encoder into a reused buffer; what
// reaches the sink, the OutputBytes it reports and the file a store writes
// must still be json.Marshal of the boxed document plus a newline — HTML
// escaping, float formatting and key order included.
func TestOutputIsMarshalPlusNewline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "twitter.json")
	if err := datasets.NewTwitter().WriteFile(path, 200, 5); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []byte
	filter := query.Exists{Path: "/user/name"}
	for dec := json.NewDecoder(bufio.NewReader(f)); ; {
		var doc any
		if err := dec.Decode(&doc); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if ok, _ := matcher(filter)(doc); !ok {
			continue
		}
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, out...), '\n')
	}
	if len(want) == 0 || bytes.Count(want, []byte("\n")) == 200 {
		t.Fatalf("the filter selects %d of 200 documents; want a proper subset", bytes.Count(want, []byte("\n")))
	}

	e, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.ImportFile(ctx, "Twitter", path); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	stats, err := e.Execute(ctx, &query.Query{Base: "Twitter", Filter: filter, Store: "named"}, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("printed %d bytes, json.Marshal plus newline gives %d", got.Len(), len(want))
	}
	if stats.OutputBytes != int64(len(want)) || stats.Returned != int64(bytes.Count(want, []byte("\n"))) {
		t.Errorf("stats %+v for %d bytes in %d documents", stats, len(want), bytes.Count(want, []byte("\n")))
	}
	storePath, err := e.cat.Get("named")
	if err != nil {
		t.Fatal(err)
	}
	if stored, err := os.ReadFile(storePath); err != nil || !bytes.Equal(stored, want) {
		t.Errorf("store file: %d bytes, %v; want the %d printed", len(stored), err, len(want))
	}

	// An aggregation pipes the same bytes into the second jq instance.
	agg := &query.Query{Base: "Twitter", Filter: filter, Agg: &query.Aggregation{Func: query.Count, Path: "/user/name", Grouped: true, GroupBy: "/lang"}}
	var fromBase, fromStored bytes.Buffer
	if _, err := e.Execute(ctx, agg, &fromBase); err != nil {
		t.Fatal(err)
	}
	agg.Base, agg.Filter = "named", nil
	if _, err := e.Execute(ctx, agg, &fromStored); err != nil {
		t.Fatal(err)
	}
	if fromBase.Len() == 0 || !bytes.Equal(fromBase.Bytes(), fromStored.Bytes()) {
		t.Errorf("aggregating the filtered stream gives %q, aggregating the stored copy %q", fromBase.Bytes(), fromStored.Bytes())
	}
}

// TestConformance runs the engine contract with the store files in dir,
// which Reset must leave empty.
func TestConformance(t *testing.T) {
	simtest.Conformance(t, func(t *testing.T, dir string) engine.Engine {
		e, err := New(dir)
		if err != nil {
			t.Fatal(err)
		}
		return e
	})
}
