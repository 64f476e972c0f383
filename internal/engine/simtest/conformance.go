package simtest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
)

// Conformance runs the engine.Engine contract — the dataset rules of
// engine.Catalog, publish-after-success, error wrapping and scan accounting
// — on engines from open, a fresh one per case. open gets an empty
// directory the engine may keep its files in; Reset must leave it empty.
func Conformance(t *testing.T, open func(t *testing.T, dir string) engine.Engine) {
	a := datasets.NewNoBench().Generate(600, 1)
	b := datasets.NewNoBench().Generate(300, 2)
	p := query.HasPrefix{Path: "/str1", Prefix: "G"}
	q := query.BoolEq{Path: "/bool", Value: true}
	pq := query.And{Left: p, Right: q}
	cases := []struct {
		name string
		run  func(c *conformance)
	}{
		{"failed_store_publishes_nothing", func(c *conformance) {
			c.imp("ds", a)
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			store := &query.Query{Base: "ds", Store: "s"}
			c.fails(context.Background(), store, &failAfter{writes: 5})
			c.fails(cancelled, store, io.Discard)
			c.missing("s")
			c.dirEmpty("after failed stores")
			c.want(&query.Query{Base: "ds", Filter: p, Store: "s"}, count(a, p))
			c.fails(context.Background(), store, &failAfter{writes: 5})
			c.want(&query.Query{Base: "s"}, count(a, p))
			c.want(&query.Query{Base: "ds", Filter: q, Store: "s"}, count(a, q))
			c.want(&query.Query{Base: "s"}, count(a, q))
			c.reset()
		}},
		{"failed_execute_counts_as_query_error", func(c *conformance) {
			c.imp("ds", a)
			reg := obs.NewRegistry()
			ctx := obs.With(context.Background(), obs.Scope{Metrics: reg})
			c.fails(ctx, &query.Query{Base: "ds", Filter: p}, &failAfter{writes: 5})
			c.fails(ctx, &query.Query{Base: "ds", Agg: &query.Aggregation{Func: query.Count, Path: "/str1"}}, &failAfter{})
			if n := reg.Counter(obs.EngineMetric(c.e.Name(), obs.EMQueryErrors)).Value(); n != 2 {
				c.t.Errorf("%d query errors counted for two failed queries", n)
			}
		}},
		{"store_of_store", func(c *conformance) {
			c.imp("ds", a)
			c.want(&query.Query{Base: "ds", Filter: p, Store: "d1"}, count(a, p))
			c.want(&query.Query{Base: "d1", Filter: q, Store: "d2"}, count(a, pq))
			c.want(&query.Query{Base: "d2"}, count(a, pq))
		}},
		{"stored_copy_reads_like_source", func(c *conformance) {
			// A copy of a copy prints the bytes its source prints, including
			// documents whose root is, or holds, an empty-key wrapper.
			docs := datasets.NewNoBench().Generate(100, 3)
			for _, s := range []string{`{"":{"a":1}}`, `{"":5}`, `{"":1,"b":2}`, `{"":{"":{"a":1}}}`, `[1,2]`,
				`{"x":{"":{"y":[1,{"":2}]}}}`} {
				docs = append(docs, Parse(c.t, s))
			}
			c.imp("base", docs)
			c.want(&query.Query{Base: "base", Store: "c1"}, int64(len(docs)))
			c.want(&query.Query{Base: "c1", Store: "c2"}, int64(len(docs)))
			got := strings.Split(c.output(&query.Query{Base: "c2"}), "\n")
			want := strings.Split(c.output(&query.Query{Base: "base"}), "\n")
			if len(got) != len(want) {
				c.t.Fatalf("the copy printed %d lines, its source %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					c.t.Errorf("line %d: the copy prints %.200s, its source %.200s", i+1, got[i], want[i])
				}
			}
		}},
		{"reset_drops_derived_only", func(c *conformance) {
			c.imp("ds", a)
			c.imp("other", b)
			c.want(&query.Query{Base: "ds", Store: "tmp"}, int64(len(a)))
			c.want(&query.Query{Base: "ds", Filter: p, Store: "other"}, count(a, p))
			c.want(&query.Query{Base: "other"}, count(a, p))
			c.reset()
			c.missing("tmp")
			c.want(&query.Query{Base: "other"}, int64(len(b)))
			c.want(&query.Query{Base: "ds"}, int64(len(a)))
		}},
		{"import_over_stored_name", func(c *conformance) {
			c.imp("ds", a)
			c.want(&query.Query{Base: "ds", Filter: p, Store: "x"}, count(a, p))
			c.imp("x", b)
			c.want(&query.Query{Base: "x"}, int64(len(b)))
			c.reset()
			c.want(&query.Query{Base: "x"}, int64(len(b)))
		}},
		{"reimport_is_not_answered_from_cache", func(c *conformance) {
			c.imp("ds", a)
			c.want(&query.Query{Base: "ds", Filter: p}, count(a, p))
			c.want(&query.Query{Base: "ds", Filter: pq}, count(a, pq))
			c.imp("ds", b)
			c.want(&query.Query{Base: "ds", Filter: p}, count(b, p))
			c.want(&query.Query{Base: "ds", Filter: pq}, count(b, pq))
		}},
		{"unknown_dataset", func(c *conformance) {
			for i := 0; i < 2; i++ {
				c.missing("ghost")
				if _, err := c.e.Execute(context.Background(), &query.Query{Base: "ghost", Store: "out"}, io.Discard); !errors.Is(err, engine.ErrUnknownDataset) {
					c.t.Errorf("store from a ghost: %v does not wrap ErrUnknownDataset", err)
				}
				c.missing("out")
				c.imp("ds", a)
			}
		}},
		{"invalid_queries_rejected", func(c *conformance) {
			c.imp("ds", a)
			c.fails(context.Background(), &query.Query{ID: "noBase"}, io.Discard)
			c.fails(context.Background(), &query.Query{Base: "ds", Store: "out", Agg: &query.Aggregation{Func: query.Count, Path: jsonval.RootPath}}, io.Discard)
			c.missing("out")
		}},
		{"scanned_plus_skipped_is_dataset_size", func(c *conformance) {
			// No sim skips: every walk scans the whole dataset and skips 0.
			// No filter repeats or extends an earlier one, so no result
			// cache shortens a walk.
			c.imp("ds", a)
			impossible := query.FloatCmp{Path: "/num", Op: query.Gt, Value: 1e15}
			for _, w := range []struct {
				q       *query.Query
				n, size int64
			}{
				{&query.Query{Base: "ds", Filter: p, Store: "d"}, count(a, p), int64(len(a))},
				{&query.Query{Base: "ds"}, int64(len(a)), int64(len(a))},
				{&query.Query{Base: "ds", Filter: q}, count(a, q), int64(len(a))},
				{&query.Query{Base: "ds", Filter: impossible}, 0, int64(len(a))},
				{&query.Query{Base: "d", Filter: q}, count(a, pq), count(a, p)},
			} {
				if st := c.want(w.q, w.n); st.Scanned != w.size || st.Skipped != 0 {
					c.t.Errorf("%s: scanned %d and skipped %d of %d documents", w.q, st.Scanned, st.Skipped, w.size)
				}
			}
		}},
		{"use_after_close", func(c *conformance) {
			c.imp("ds", a)
			c.want(&query.Query{Base: "ds", Filter: p, Store: "s"}, count(a, p))
			for i := 0; i < 2; i++ {
				c.e.Close()
				c.e.ImportFile(context.Background(), "ds", c.write(a))
				c.e.Execute(context.Background(), &query.Query{Base: "ds", Filter: p, Store: "s"}, io.Discard)
				c.e.Reset()
			}
		}},
		{"concurrent_execute_with_store", func(c *conformance) {
			c.imp("ds", a)
			qs := []*query.Query{
				{Base: "ds", Filter: p},
				{Base: "ds", Filter: q, Agg: &query.Aggregation{Func: query.Count, Path: "/str1", Grouped: true, GroupBy: "/str2"}},
				{Base: "ds", Filter: q, Store: "derived"},
				{Base: "derived", Filter: p},
			}
			// A first run fills whatever result cache the engine keeps, so
			// every later run of a query scans alike.
			RunAll(context.Background(), c.t, c.e, qs...)
			ConcurrentExecute(context.Background(), c.t, c.e, qs)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &conformance{t: t, dir: t.TempDir(), src: t.TempDir()}
			c.e = open(t, c.dir)
			t.Cleanup(func() { c.e.Close() })
			tc.run(c)
			for _, path := range c.sources {
				if _, err := os.Stat(path); err != nil {
					t.Errorf("source file: %v", err)
				}
			}
		})
	}
}

// conformance is one case's engine, its work directory and the source files
// it imported.
type conformance struct {
	t        *testing.T
	e        engine.Engine
	dir, src string
	sources  []string
}

// write stores docs as a new NDJSON source file.
func (c *conformance) write(docs []jsonval.Value) string {
	var raw []byte
	for _, d := range docs {
		raw = append(jsonval.AppendJSON(raw, d), '\n')
	}
	path := filepath.Join(c.src, fmt.Sprintf("src%d.json", len(c.sources)))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		c.t.Fatal(err)
	}
	c.sources = append(c.sources, path)
	return path
}

func (c *conformance) imp(name string, docs []jsonval.Value) {
	c.t.Helper()
	if _, err := c.e.ImportFile(context.Background(), name, c.write(docs)); err != nil {
		c.t.Fatalf("import %s: %v", name, err)
	}
}

// want runs q and requires it to match n documents.
func (c *conformance) want(q *query.Query, n int64) engine.ExecStats {
	c.t.Helper()
	st, err := c.e.Execute(context.Background(), q, io.Discard)
	if err != nil {
		c.t.Fatalf("%s: %v", q, err)
	}
	if st.Matched != n {
		c.t.Errorf("%s: matched %d, want %d", q, st.Matched, n)
	}
	return st
}

// output runs q and returns what it wrote.
func (c *conformance) output(q *query.Query) string {
	c.t.Helper()
	var out bytes.Buffer
	if _, err := c.e.Execute(context.Background(), q, &out); err != nil {
		c.t.Fatalf("%s: %v", q, err)
	}
	return out.String()
}

func (c *conformance) fails(ctx context.Context, q *query.Query, sink io.Writer) {
	c.t.Helper()
	if _, err := c.e.Execute(ctx, q, sink); err == nil {
		c.t.Errorf("%s succeeded; want it to fail", q)
	}
}

func (c *conformance) missing(name string) {
	c.t.Helper()
	if st, err := c.e.Execute(context.Background(), &query.Query{Base: name}, io.Discard); !errors.Is(err, engine.ErrUnknownDataset) {
		c.t.Errorf("query on %s: %+v, %v; want ErrUnknownDataset", name, st, err)
	}
}

// reset resets the engine, which must leave its directory empty.
func (c *conformance) reset() {
	c.t.Helper()
	if err := c.e.Reset(); err != nil {
		c.t.Fatal(err)
	}
	c.dirEmpty("after Reset")
}

func (c *conformance) dirEmpty(when string) {
	c.t.Helper()
	if left, _ := os.ReadDir(c.dir); len(left) != 0 {
		c.t.Errorf("%s the work directory holds %d files", when, len(left))
	}
}

// failAfter is a sink whose writes start failing.
type failAfter struct{ writes int }

func (s *failAfter) Write(p []byte) (int, error) {
	if s.writes--; s.writes < 0 {
		return 0, errors.New("sink failed")
	}
	return len(p), nil
}

func count(docs []jsonval.Value, p query.Predicate) int64 {
	var n int64
	for _, d := range docs {
		if p == nil || p.Eval(d) {
			n++
		}
	}
	return n
}
