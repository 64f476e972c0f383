package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/jodasim"
	"github.com/joda-explore/betze/internal/engine/jqsim"
	"github.com/joda-explore/betze/internal/engine/mongosim"
	"github.com/joda-explore/betze/internal/engine/pgsim"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// corpus builds a heterogeneous document set exercising every predicate.
func corpus(n int, seed int64) []jsonval.Value {
	r := rand.New(rand.NewSource(seed))
	docs := make([]jsonval.Value, n)
	cities := []string{"berlin", "paris", "tokyo", "lima", "oslo"}
	for i := range docs {
		members := []jsonval.Member{
			{Key: "id", Value: jsonval.IntValue(int64(i))},
			{Key: "score", Value: jsonval.FloatValue(r.Float64() * 100)},
			{Key: "city", Value: jsonval.StringValue(cities[r.Intn(len(cities))])},
			{Key: "active", Value: jsonval.BoolValue(r.Intn(2) == 0)},
		}
		if r.Intn(2) == 0 {
			members = append(members, jsonval.Member{Key: "user", Value: jsonval.ObjectValue(
				jsonval.Member{Key: "name", Value: jsonval.StringValue(fmt.Sprintf("user_%02d", r.Intn(30)))},
				jsonval.Member{Key: "verified", Value: jsonval.BoolValue(r.Intn(4) == 0)},
				jsonval.Member{Key: "followers", Value: jsonval.IntValue(int64(r.Intn(100000)))},
			)})
		}
		if r.Intn(3) == 0 {
			tags := make([]jsonval.Value, r.Intn(6))
			for j := range tags {
				tags[j] = jsonval.StringValue(fmt.Sprintf("tag%d", j))
			}
			members = append(members, jsonval.Member{Key: "tags", Value: jsonval.ArrayValue(tags...)})
		}
		if r.Intn(5) == 0 {
			members = append(members, jsonval.Member{Key: "extra", Value: jsonval.NullValue()})
		}
		docs[i] = jsonval.ObjectValue(members...)
	}
	return docs
}

// writeDataset serialises docs as an NDJSON file.
func writeDataset(t *testing.T, dir string, name string, docs []jsonval.Value) string {
	t.Helper()
	path := filepath.Join(dir, name+".json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var buf []byte
	for _, d := range docs {
		buf = jsonval.AppendJSON(buf[:0], d)
		buf = append(buf, '\n')
		if _, err := f.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// allEngines builds one instance of each engine with the dataset imported.
func allEngines(t *testing.T, name string, docs []jsonval.Value) []engine.Engine {
	t.Helper()
	dir := t.TempDir()
	path := writeDataset(t, dir, name, docs)
	jq, err := jqsim.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	engines := []engine.Engine{
		jodasim.New(jodasim.Options{Threads: 4}),
		mongosim.New(mongosim.Options{}),
		pgsim.New(pgsim.Options{}),
		jq,
	}
	ctx := context.Background()
	for _, e := range engines {
		if _, err := e.ImportFile(ctx, name, path); err != nil {
			t.Fatalf("%s import: %v", e.Name(), err)
		}
	}
	t.Cleanup(func() {
		for _, e := range engines {
			e.Close()
		}
	})
	return engines
}

// testQueries covers every predicate type and aggregation shape.
func testQueries(base string) []*query.Query {
	preds := []query.Predicate{
		query.Exists{Path: "/user"},
		query.Exists{Path: "/extra"}, // null values still exist
		query.IsString{Path: "/city"},
		query.IntEq{Path: "/id", Value: 7},
		query.FloatCmp{Path: "/score", Op: query.Ge, Value: 50},
		query.FloatCmp{Path: "/user/followers", Op: query.Lt, Value: 50000},
		query.StrEq{Path: "/city", Value: "berlin"},
		query.HasPrefix{Path: "/user/name", Prefix: "user_1"},
		query.BoolEq{Path: "/active", Value: false},
		query.ArrSize{Path: "/tags", Op: query.Gt, Value: 2},
		query.ObjSize{Path: "/user", Op: query.Ge, Value: 3},
		query.And{Left: query.BoolEq{Path: "/active", Value: true}, Right: query.FloatCmp{Path: "/score", Op: query.Lt, Value: 80}},
		query.Or{Left: query.StrEq{Path: "/city", Value: "oslo"}, Right: query.Exists{Path: "/tags"}},
		query.And{
			Left:  query.Or{Left: query.Exists{Path: "/user"}, Right: query.Exists{Path: "/tags"}},
			Right: query.FloatCmp{Path: "/score", Op: query.Ge, Value: 10},
		},
	}
	var out []*query.Query
	for i, p := range preds {
		out = append(out, &query.Query{ID: fmt.Sprintf("q%d", i), Base: base, Filter: p})
	}
	// Aggregation shapes.
	out = append(out,
		&query.Query{ID: "agg1", Base: base, Filter: preds[4], Agg: &query.Aggregation{Func: query.Count, Path: jsonval.RootPath}},
		&query.Query{ID: "agg2", Base: base, Filter: preds[4], Agg: &query.Aggregation{Func: query.Count, Path: "/user"}},
		&query.Query{ID: "agg3", Base: base, Filter: preds[4], Agg: &query.Aggregation{Func: query.Sum, Path: "/id"}},
		&query.Query{ID: "agg4", Base: base, Agg: &query.Aggregation{Func: query.Count, Path: jsonval.RootPath, Grouped: true, GroupBy: "/city"}},
		&query.Query{ID: "agg5", Base: base, Agg: &query.Aggregation{Func: query.Sum, Path: "/score", Grouped: true, GroupBy: "/active"}},
		&query.Query{ID: "agg6", Base: base, Agg: &query.Aggregation{Func: query.Count, Path: jsonval.RootPath, Grouped: true, GroupBy: "/user/name"}},
	)
	return out
}

// canonicalise reduces engine output to an order- and key-order-insensitive
// form: pgsim normalises JSONB member order (as PostgreSQL does) and grouped
// aggregation output order is engine-specific, so results compare by parsed
// value identity.
func canonicalise(t *testing.T, out string) string {
	t.Helper()
	trimmed := strings.TrimSpace(out)
	if trimmed == "" {
		return ""
	}
	lines := strings.Split(trimmed, "\n")
	keys := make([]string, len(lines))
	for i, line := range lines {
		v, err := jsonval.Parse([]byte(line))
		if err != nil {
			t.Fatalf("engine emitted invalid JSON %q: %v", line, err)
		}
		keys[i] = v.GroupKey()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func TestEnginesAgree(t *testing.T) {
	docs := corpus(3000, 51)
	engines := allEngines(t, "ds", docs)
	ctx := context.Background()
	for _, q := range testQueries("ds") {
		var reference string
		var refMatched int64
		for i, e := range engines {
			var out bytes.Buffer
			stats, err := e.Execute(ctx, q, &out)
			if err != nil {
				t.Fatalf("%s executing %s: %v", e.Name(), q, err)
			}
			got := canonicalise(t, out.String())
			if i == 0 {
				reference = got
				refMatched = stats.Matched
				continue
			}
			if stats.Matched != refMatched {
				t.Errorf("%s matched %d docs for %s, JODA matched %d", e.Name(), stats.Matched, q, refMatched)
			}
			if got != reference {
				t.Errorf("%s output differs for %s:\n--- got ---\n%.400s\n--- want ---\n%.400s", e.Name(), q, got, reference)
			}
		}
	}
}

func TestEnginesContextCancellation(t *testing.T) {
	docs := corpus(50000, 55)
	engines := allEngines(t, "ds", docs)
	for _, e := range engines {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		_, err := e.Execute(ctx, &query.Query{Base: "ds", Filter: query.FloatCmp{Path: "/score", Op: query.Ge, Value: 0}}, io.Discard)
		cancel()
		if err == nil {
			t.Logf("%s finished before the deadline (machine fast); not an error", e.Name())
		} else if ctx.Err() == nil {
			t.Errorf("%s returned unexpected error: %v", e.Name(), err)
		}
	}
}

func TestImportStats(t *testing.T) {
	docs := corpus(500, 56)
	dir := t.TempDir()
	path := writeDataset(t, dir, "ds", docs)
	ctx := context.Background()
	for _, e := range []engine.Engine{
		jodasim.New(jodasim.Options{}),
		mongosim.New(mongosim.Options{}),
		pgsim.New(pgsim.Options{}),
	} {
		stats, err := e.ImportFile(ctx, "ds", path)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if stats.Docs != 500 {
			t.Errorf("%s imported %d docs", e.Name(), stats.Docs)
		}
		if stats.Bytes <= 0 || stats.StoredBytes <= 0 {
			t.Errorf("%s byte stats: %+v", e.Name(), stats)
		}
		e.Close()
	}
}

func TestMongoCompressionShrinksStorage(t *testing.T) {
	docs := corpus(2000, 57)
	dir := t.TempDir()
	path := writeDataset(t, dir, "ds", docs)
	ctx := context.Background()
	comp := mongosim.New(mongosim.Options{})
	raw := mongosim.New(mongosim.Options{DisableCompression: true})
	cs, err := comp.ImportFile(ctx, "ds", path)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := raw.ImportFile(ctx, "ds", path)
	if err != nil {
		t.Fatal(err)
	}
	if cs.StoredBytes >= rs.StoredBytes {
		t.Errorf("compression did not shrink storage: %d vs %d", cs.StoredBytes, rs.StoredBytes)
	}
}

func TestPgsimRejectsNullByte(t *testing.T) {
	docs := []jsonval.Value{
		jsonval.ObjectValue(jsonval.Member{Key: "body", Value: jsonval.StringValue("fine")}),
		jsonval.ObjectValue(jsonval.Member{Key: "body", Value: jsonval.StringValue("bad\x00byte")}),
	}
	dir := t.TempDir()
	path := writeDataset(t, dir, "reddit", docs)
	e := pgsim.New(pgsim.Options{})
	_, err := e.ImportFile(context.Background(), "reddit", path)
	if err == nil || !strings.Contains(err.Error(), "u0000") {
		t.Errorf("pgsim accepted U+0000 document: %v", err)
	}
	// The other engines must accept the same file (as in Table III, where
	// only PostgreSQL failed to load Reddit).
	for _, other := range []engine.Engine{mongosim.New(mongosim.Options{}), jodasim.New(jodasim.Options{})} {
		if _, err := other.ImportFile(context.Background(), "reddit", path); err != nil {
			t.Errorf("%s rejected the NUL dataset: %v", other.Name(), err)
		}
	}
}

func TestJodaThreadScaling(t *testing.T) {
	docs := corpus(30000, 58)
	e := jodasim.New(jodasim.Options{Threads: 1, DisableCache: true})
	e.ImportValues("ds", docs)
	q := &query.Query{Base: "ds", Filter: query.FloatCmp{Path: "/score", Op: query.Ge, Value: 30}}
	measure := func(threads int) time.Duration {
		e.SetThreads(threads)
		best := time.Hour
		for i := 0; i < 3; i++ {
			stats, err := e.Execute(context.Background(), q, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Duration < best {
				best = stats.Duration
			}
		}
		return best
	}
	t1 := measure(1)
	t4 := measure(4)
	// Expect a visible speedup; exact factor depends on the machine.
	if t4 > t1 {
		t.Logf("threads=1: %v, threads=4: %v (no speedup on this machine/load)", t1, t4)
	}
}

func TestJodaResultCache(t *testing.T) {
	docs := corpus(5000, 59)
	e := jodasim.New(jodasim.Options{Threads: 2})
	e.ImportValues("ds", docs)
	p1 := query.FloatCmp{Path: "/score", Op: query.Ge, Value: 20}
	p2 := query.BoolEq{Path: "/active", Value: true}
	q1 := &query.Query{Base: "ds", Filter: p1}
	q2 := &query.Query{Base: "ds", Filter: query.And{Left: p1, Right: p2}}
	ctx := context.Background()
	s1, err := e.Execute(ctx, q1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.Execute(ctx, q2, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if e.CacheHits() == 0 {
		t.Errorf("composed query did not hit the result cache")
	}
	if s2.Scanned != s1.Matched {
		t.Errorf("composed query scanned %d docs, cached ancestor has %d", s2.Scanned, s1.Matched)
	}
	// Uncached engine re-scans everything.
	raw := jodasim.New(jodasim.Options{Threads: 2, DisableCache: true})
	raw.ImportValues("ds", docs)
	raw.Execute(ctx, q1, io.Discard)
	s2raw, err := raw.Execute(ctx, q2, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s2raw.Scanned != int64(len(docs)) {
		t.Errorf("uncached engine scanned %d, want full %d", s2raw.Scanned, len(docs))
	}
	if s2raw.Matched != s2.Matched {
		t.Errorf("cache changed semantics: %d vs %d matches", s2.Matched, s2raw.Matched)
	}
}

func TestJodaEvictionReparses(t *testing.T) {
	docs := corpus(2000, 60)
	evict := jodasim.New(jodasim.Options{Threads: 2, Evict: true})
	evict.ImportValues("ds", docs)
	q := &query.Query{Base: "ds", Filter: query.Exists{Path: "/user"}}
	ctx := context.Background()
	s1, err := evict.Execute(ctx, q, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := evict.Execute(ctx, q, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Matched != s2.Matched {
		t.Errorf("eviction changed results: %d vs %d", s1.Matched, s2.Matched)
	}
	if evict.CacheHits() != 0 {
		t.Errorf("evicting engine used the cache")
	}
}

func TestJodaImplementsBackend(t *testing.T) {
	docs := corpus(1000, 63)
	e := jodasim.New(jodasim.Options{Threads: 2})
	e.ImportValues("ds", docs)
	n, err := e.CountMatching("ds", nil)
	if err != nil || n != 1000 {
		t.Fatalf("CountMatching(nil) = %d, %v", n, err)
	}
	n, err = e.CountMatching("ds", query.BoolEq{Path: "/active", Value: true})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, d := range docs {
		if (query.BoolEq{Path: "/active", Value: true}).Eval(d) {
			want++
		}
	}
	if n != want {
		t.Errorf("CountMatching = %d, want %d", n, want)
	}
}

func TestEnginesAgreeOnTransforms(t *testing.T) {
	docs := corpus(1500, 64)
	engines := allEngines(t, "ds", docs)
	ctx := context.Background()
	queries := []*query.Query{
		{ID: "t1", Base: "ds",
			Filter: query.FloatCmp{Path: "/score", Op: query.Ge, Value: 20},
			Transform: &query.Transform{Ops: []query.TransformOp{
				{Kind: query.TransformRename, Path: "/city", NewName: "location"},
				{Kind: query.TransformAdd, Path: "/source", Value: jsonval.StringValue("betze")},
			}}},
		{ID: "t2", Base: "ds",
			Transform: &query.Transform{Ops: []query.TransformOp{
				{Kind: query.TransformRemove, Path: "/user/followers"},
			}}},
		{ID: "t3", Base: "ds",
			Filter: query.Exists{Path: "/user"},
			Transform: &query.Transform{Ops: []query.TransformOp{
				{Kind: query.TransformRename, Path: "/user/name", NewName: "alias"},
			}},
			Agg: &query.Aggregation{Func: query.Count, Path: "/user/alias"}},
	}
	for _, q := range queries {
		var reference string
		for i, e := range engines {
			var out bytes.Buffer
			if _, err := e.Execute(ctx, q, &out); err != nil {
				t.Fatalf("%s executing %s: %v", e.Name(), q, err)
			}
			got := canonicalise(t, out.String())
			if i == 0 {
				reference = got
			} else if got != reference {
				t.Errorf("%s transform output differs for %s:\n--- got ---\n%.300s\n--- want ---\n%.300s",
					e.Name(), q, got, reference)
			}
		}
	}
	// Transformed stored datasets must be queryable under the new shape.
	store := &query.Query{ID: "ts", Base: "ds", Store: "renamed",
		Transform: &query.Transform{Ops: []query.TransformOp{
			{Kind: query.TransformRename, Path: "/city", NewName: "location"},
		}}}
	followup := &query.Query{ID: "tf", Base: "renamed", Filter: query.StrEq{Path: "/location", Value: "berlin"}}
	var want int64 = -1
	for _, e := range engines {
		if _, err := e.Execute(ctx, store, io.Discard); err != nil {
			t.Fatalf("%s store: %v", e.Name(), err)
		}
		stats, err := e.Execute(ctx, followup, io.Discard)
		if err != nil {
			t.Fatalf("%s follow-up: %v", e.Name(), err)
		}
		if want == -1 {
			want = stats.Matched
		} else if stats.Matched != want {
			t.Errorf("%s matched %d on transformed store, want %d", e.Name(), stats.Matched, want)
		}
	}
	if want <= 0 {
		t.Fatalf("transformed follow-up matched nothing")
	}
}

func TestImportFileErrors(t *testing.T) {
	dir := t.TempDir()
	malformed := filepath.Join(dir, "broken.json")
	if err := os.WriteFile(malformed, []byte("{\"a\":1}\n{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	jq, err := jqsim.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer jq.Close()
	engines := []engine.Engine{
		jodasim.New(jodasim.Options{}),
		mongosim.New(mongosim.Options{}),
		pgsim.New(pgsim.Options{}),
	}
	ctx := context.Background()
	for _, e := range engines {
		if _, err := e.ImportFile(ctx, "x", malformed); err == nil {
			t.Errorf("%s imported a malformed file", e.Name())
		}
		if _, err := e.ImportFile(ctx, "x", filepath.Join(dir, "missing.json")); err == nil {
			t.Errorf("%s imported a missing file", e.Name())
		}
		e.Close()
	}
	// jq records the file without parsing (no import phase); the parse
	// error surfaces at execution time instead, as with the real tool.
	if _, err := jq.ImportFile(ctx, "x", malformed); err != nil {
		t.Fatalf("jq import should not parse: %v", err)
	}
	if _, err := jq.Execute(ctx, &query.Query{ID: "q", Base: "x"}, io.Discard); err == nil {
		t.Errorf("jq executed over a malformed file without error")
	}
	if _, err := jq.ImportFile(ctx, "y", filepath.Join(dir, "missing.json")); err == nil {
		t.Errorf("jq accepted a missing file")
	}
}

func TestJodaEvictionFromFile(t *testing.T) {
	docs := corpus(500, 71)
	dir := t.TempDir()
	path := writeDataset(t, dir, "ds", docs)
	e := jodasim.New(jodasim.Options{Evict: true, Threads: 2})
	defer e.Close()
	if _, err := e.ImportFile(context.Background(), "ds", path); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{ID: "q", Base: "ds", Filter: query.Exists{Path: "/user"}}
	first, err := e.Execute(context.Background(), q, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Execute(context.Background(), q, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if first.Matched != second.Matched {
		t.Errorf("eviction changed file-imported results: %d vs %d", first.Matched, second.Matched)
	}
}

// TestShardSkipAccounting pins the scan stats contract across the fleet: no
// engine prunes, so every query on a base dataset scans every document and
// skips none — a predicate no document satisfies and a selective one over
// clustered ids alike.
func TestShardSkipAccounting(t *testing.T) {
	docs := corpus(4000, 77)
	n := int64(len(docs))
	// Every /score is below 100, so no document satisfies this range.
	impossible := query.FloatCmp{Path: "/score", Op: query.Gt, Value: 1000}
	// The /id values are 0..n-1 in import order.
	selective := query.FloatCmp{Path: "/id", Op: query.Lt, Value: 10}
	ctx := context.Background()
	for _, e := range allEngines(t, "sk", docs) {
		for _, c := range []struct {
			filter  query.Predicate
			matched int64
		}{{impossible, 0}, {selective, 10}} {
			st, err := e.Execute(ctx, &query.Query{ID: "sk", Base: "sk", Filter: c.filter}, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if st.Scanned != n || st.Skipped != 0 {
				t.Errorf("%s: %s scanned %d and skipped %d, want %d and 0", e.Name(), c.filter, st.Scanned, st.Skipped, n)
			}
			if st.Matched != c.matched {
				t.Errorf("%s: %s matched %d, want %d", e.Name(), c.filter, st.Matched, c.matched)
			}
		}
	}
}
