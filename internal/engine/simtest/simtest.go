// Package simtest holds the documents, predicates and concurrency check the
// four engines' own tests share.
package simtest

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// Parse parses one JSON document or fails the test.
func Parse(t testing.TB, s string) jsonval.Value {
	t.Helper()
	v, err := jsonval.Parse([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// Docs returns generated Twitter, NoBench and Reddit documents plus shapes
// the generators never emit: scalars where objects are expected, arrays as
// path intermediates, a non-object root.
func Docs(t testing.TB) []jsonval.Value {
	docs := datasets.NewTwitter().Generate(40, 3)
	docs = append(docs, datasets.NewNoBench().Generate(40, 3)...)
	docs = append(docs, datasets.NewReddit(datasets.RedditOptions{NullByteFraction: -1}).Generate(40, 3)...)
	for _, s := range []string{`{}`, `7`, `{"user":5}`, `{"user":[{"name":"x"}]}`, `{"user":{"name":["x"]}}`,
		`{"str1":7,"num":"seven","bool":null,"nested_arr":{"a":1},"nested_obj":[1,2]}`} {
		docs = append(docs, Parse(t, s))
	}
	return docs
}

// LeafPredicates returns predicates of all nine kinds for every (path,
// value) found in the sample — constants taken from the sample so that each
// kind matches some documents and rejects others — and for paths that are
// absent, of the wrong kind, or run through a non-object. Leaves the
// compiler folds to constants (EXISTS('/'), unsatisfiable sizes, the empty
// prefix) and a leaf type the compiler does not know are among them, and
// AND/OR trees over all of them.
func LeafPredicates(sample []jsonval.Value) []query.Predicate {
	var preds []query.Predicate
	seen := map[string]bool{}
	add := func(ps ...query.Predicate) {
		for _, p := range ps {
			if !seen[p.String()] {
				seen[p.String()] = true
				preds = append(preds, p)
			}
		}
	}
	everyKind := func(path jsonval.Path) {
		add(query.Exists{Path: path}, query.IsString{Path: path}, query.IntEq{Path: path, Value: 1},
			query.FloatCmp{Path: path, Op: query.Ge, Value: 0}, query.StrEq{Path: path, Value: "x"},
			query.HasPrefix{Path: path, Prefix: ""}, query.BoolEq{Path: path, Value: true},
			query.ArrSize{Path: path, Op: query.Ge, Value: 0}, query.ObjSize{Path: path, Op: query.Ge, Value: 0},
			query.ArrSize{Path: path, Op: query.Lt, Value: 0}, query.ObjSize{Path: path, Op: query.Le, Value: -1})
	}
	var walk func(path jsonval.Path, v jsonval.Value)
	walk = func(path jsonval.Path, v jsonval.Value) {
		if len(preds) > 700 {
			return
		}
		everyKind(path)
		switch v.Kind() {
		case jsonval.Int, jsonval.Float:
			n, _ := v.Number()
			add(query.IntEq{Path: path, Value: int64(n)})
			for _, op := range []query.CmpOp{query.Lt, query.Le, query.Gt, query.Ge, query.Eq} {
				add(query.FloatCmp{Path: path, Op: op, Value: n})
			}
		case jsonval.String:
			s := v.Str()
			add(query.StrEq{Path: path, Value: s}, query.StrEq{Path: path, Value: s + "x"},
				query.HasPrefix{Path: path, Prefix: s[:len(s)/2]}, query.HasPrefix{Path: path, Prefix: s + "x"})
		case jsonval.Bool:
			add(query.BoolEq{Path: path, Value: v.Bool()}, query.BoolEq{Path: path, Value: !v.Bool()})
		case jsonval.Array:
			add(query.ArrSize{Path: path, Op: query.Eq, Value: v.Len()}, query.ArrSize{Path: path, Op: query.Gt, Value: v.Len()})
		case jsonval.Object:
			add(query.ObjSize{Path: path, Op: query.Eq, Value: v.Len()}, query.ObjSize{Path: path, Op: query.Lt, Value: v.Len()})
			for _, m := range v.Members() {
				walk(path.Child(m.Key), m.Value)
			}
		}
	}
	for _, d := range sample {
		walk(jsonval.RootPath, d)
	}
	for _, p := range []jsonval.Path{"/nope", "/user/nope", "/user/name/deeper", "/nested_arr/0", "/str1/x/y"} {
		everyKind(p)
	}
	add(query.Exists{Path: jsonval.RootPath}, external{query.Exists{Path: "/user/name"}},
		external{query.IsString{Path: "/str1"}}, external{query.StrEq{Path: "/nope", Value: "x"}})
	leaves := len(preds)
	for i := 0; i+2 < leaves; i += 3 {
		add(query.And{Left: preds[i], Right: query.Or{Left: preds[i+1], Right: preds[i+2]}})
	}
	return preds
}

// external is a leaf type the query compiler does not know: it evaluates
// its wrapped leaf on the decoded document.
type external struct{ query.Predicate }

func (e external) String() string { return "EXTERNAL(" + e.Predicate.String() + ")" }

// RejectedDoc is a document that Rejections' predicates all reject.
const RejectedDoc = `{"id":4,"user":{"name":"alice","verified":false,"tags":[1,2],"geo":{"lat":1.5}},"text":7,
	"pad":"the quick brown fox jumps over the lazy dog, the quick brown fox jumps over the lazy dog"}`

// Rejections returns one predicate of every kind that RejectedDoc fails —
// by value, by kind, by an absent path, by a path through a scalar — and an
// AND/OR tree over all of them.
func Rejections() []query.Predicate {
	rejects := []query.Predicate{
		query.Exists{Path: "/user/nope"},
		query.IsString{Path: "/id"},
		query.IntEq{Path: "/id", Value: 5},
		query.FloatCmp{Path: "/user/geo/lat", Op: query.Gt, Value: 2},
		query.StrEq{Path: "/user/name", Value: "alicf"},
		query.HasPrefix{Path: "/user/name", Prefix: "b"},
		query.BoolEq{Path: "/user/verified", Value: true},
		query.ArrSize{Path: "/user/tags", Op: query.Gt, Value: 2},
		query.ObjSize{Path: "/user", Op: query.Lt, Value: 4},
		query.StrEq{Path: "/text", Value: "7"},
		query.IntEq{Path: "/user/name/deeper", Value: 1},
	}
	all := rejects[0]
	for _, p := range rejects[1:] {
		all = query.Or{Left: all, Right: query.And{Left: query.Exists{Path: "/id"}, Right: p}}
	}
	return append(rejects, all)
}

// RunAll executes the queries in order and returns everything they wrote
// plus their statistics (durations zeroed), for comparing two engines or
// two runs byte for byte.
func RunAll(ctx context.Context, t testing.TB, e engine.Engine, qs ...*query.Query) string {
	var out bytes.Buffer
	for _, q := range qs {
		stats, err := e.Execute(ctx, q, &out)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			return ""
		}
		stats.Duration = 0
		fmt.Fprintf(&out, "%+v\n", stats)
	}
	return out.String()
}

// ConcurrentExecute runs the queries from eight goroutines at once on one
// engine and requires each to produce what it produces alone (run under
// -race: whatever an Execute reuses must belong to that call).
func ConcurrentExecute(ctx context.Context, t *testing.T, e engine.Engine, qs []*query.Query) {
	want := make([]string, len(qs))
	for i, q := range qs {
		want[i] = RunAll(ctx, t, e, q)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := (g + i) % len(qs)
				if RunAll(ctx, t, e, qs[k]) != want[k] {
					t.Errorf("concurrent %s differs from its serial run", qs[k])
				}
			}
		}(g)
	}
	wg.Wait()
}
