package engine_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// The differential fuzz: random predicates over random documents must yield
// identical results on all four engines. This is the strongest correctness
// check in the repository — any divergence between the typed evaluator
// (jodasim), the lazy BSON walker (mongosim), the JSONB decoder (pgsim) and
// the boxed-value interpreter (jqsim) fails it.

var fuzzPaths = []jsonval.Path{"/a", "/b", "/c", "/nest/x", "/nest/y", "/arr", "/obj", "/missing"}

func fuzzPredicate(r *rand.Rand, depth int) query.Predicate {
	if depth > 0 && r.Intn(3) == 0 {
		l, rr := fuzzPredicate(r, depth-1), fuzzPredicate(r, depth-1)
		if r.Intn(2) == 0 {
			return query.And{Left: l, Right: rr}
		}
		return query.Or{Left: l, Right: rr}
	}
	p := fuzzPaths[r.Intn(len(fuzzPaths))]
	ops := []query.CmpOp{query.Lt, query.Le, query.Gt, query.Ge, query.Eq}
	switch r.Intn(9) {
	case 0:
		return query.Exists{Path: p}
	case 1:
		return query.IsString{Path: p}
	case 2:
		return query.IntEq{Path: p, Value: int64(r.Intn(20) - 10)}
	case 3:
		return query.FloatCmp{Path: p, Op: ops[r.Intn(len(ops))], Value: float64(r.Intn(200)-100) / 4}
	case 4:
		return query.StrEq{Path: p, Value: fuzzString(r)}
	case 5:
		s := fuzzString(r)
		n := 1 + r.Intn(2)
		if n > len(s) {
			n = len(s)
		}
		return query.HasPrefix{Path: p, Prefix: s[:n]}
	case 6:
		return query.BoolEq{Path: p, Value: r.Intn(2) == 0}
	case 7:
		return query.ArrSize{Path: p, Op: ops[r.Intn(len(ops))], Value: r.Intn(5)}
	default:
		return query.ObjSize{Path: p, Op: ops[r.Intn(len(ops))], Value: r.Intn(5)}
	}
}

func fuzzString(r *rand.Rand) string {
	base := []string{"alpha", "beta", "gamma", "um läut", "x"}
	return base[r.Intn(len(base))]
}

func fuzzValue(r *rand.Rand, depth int) jsonval.Value {
	max := 7
	if depth <= 0 {
		max = 5
	}
	switch r.Intn(max) {
	case 0:
		return jsonval.NullValue()
	case 1:
		return jsonval.BoolValue(r.Intn(2) == 0)
	case 2:
		return jsonval.IntValue(int64(r.Intn(20) - 10))
	case 3:
		// Halves stay exact in float64, keeping jq's double semantics
		// aligned with the exact engines.
		return jsonval.FloatValue(float64(r.Intn(200)-100) / 2)
	case 4:
		return jsonval.StringValue(fuzzString(r))
	case 5:
		n := r.Intn(5)
		elems := make([]jsonval.Value, n)
		for i := range elems {
			elems[i] = fuzzValue(r, depth-1)
		}
		return jsonval.ArrayValue(elems...)
	default:
		n := r.Intn(4)
		members := make([]jsonval.Member, 0, n)
		used := map[string]bool{}
		for i := 0; i < n; i++ {
			k := string(rune('p' + r.Intn(4)))
			if used[k] {
				continue
			}
			used[k] = true
			members = append(members, jsonval.Member{Key: k, Value: fuzzValue(r, depth-1)})
		}
		return jsonval.ObjectValue(members...)
	}
}

// fuzzTransform builds a 1–3 op transformation stage. Renames always target
// fresh names ("r0"…) that no fuzz document contains, so a rename can never
// manufacture duplicate keys and the canonicalised outputs stay comparable.
func fuzzTransform(r *rand.Rand) *query.Transform {
	n := 1 + r.Intn(3)
	ops := make([]query.TransformOp, 0, n)
	for i := 0; i < n; i++ {
		p := fuzzPaths[r.Intn(len(fuzzPaths))]
		switch r.Intn(3) {
		case 0:
			ops = append(ops, query.TransformOp{
				Kind: query.TransformRename, Path: p, NewName: fmt.Sprintf("r%d", i),
			})
		case 1:
			ops = append(ops, query.TransformOp{Kind: query.TransformRemove, Path: p})
		default:
			ops = append(ops, query.TransformOp{
				Kind: query.TransformAdd, Path: jsonval.Path(fmt.Sprintf("/t%d", i)),
				Value: fuzzValue(r, 0),
			})
		}
	}
	return &query.Transform{Ops: ops}
}

func fuzzDoc(r *rand.Rand) jsonval.Value {
	var members []jsonval.Member
	for _, key := range []string{"a", "b", "c"} {
		if r.Intn(4) > 0 {
			members = append(members, jsonval.Member{Key: key, Value: fuzzValue(r, 1)})
		}
	}
	if r.Intn(2) == 0 {
		members = append(members, jsonval.Member{Key: "nest", Value: jsonval.ObjectValue(
			jsonval.Member{Key: "x", Value: fuzzValue(r, 1)},
			jsonval.Member{Key: "y", Value: fuzzValue(r, 1)},
		)})
	}
	if r.Intn(2) == 0 {
		n := r.Intn(5)
		elems := make([]jsonval.Value, n)
		for i := range elems {
			elems[i] = fuzzValue(r, 0)
		}
		members = append(members, jsonval.Member{Key: "arr", Value: jsonval.ArrayValue(elems...)})
	}
	if r.Intn(2) == 0 {
		members = append(members, jsonval.Member{Key: "obj", Value: fuzzValue(r, 1)})
	}
	return jsonval.ObjectValue(members...)
}

func TestDifferentialFuzzAcrossEngines(t *testing.T) {
	r := rand.New(rand.NewSource(2026))
	docs := make([]jsonval.Value, 400)
	for i := range docs {
		docs[i] = fuzzDoc(r)
	}
	engines := allEngines(t, "fz", docs)
	ctx := context.Background()

	const rounds = 120
	for round := 0; round < rounds; round++ {
		q := &query.Query{ID: fmt.Sprintf("f%d", round), Base: "fz", Filter: fuzzPredicate(r, 2)}
		if r.Intn(3) == 0 {
			q.Transform = fuzzTransform(r)
		}
		if r.Intn(3) == 0 {
			agg := &query.Aggregation{Path: fuzzPaths[r.Intn(len(fuzzPaths))]}
			if r.Intn(2) == 0 {
				agg.Func = query.Count
			} else {
				agg.Func = query.Sum
			}
			if r.Intn(2) == 0 {
				agg.Grouped = true
				agg.GroupBy = fuzzPaths[r.Intn(len(fuzzPaths))]
			}
			q.Agg = agg
		}
		var refOut string
		var refMatched int64
		var refName string
		for i, e := range engines {
			var out bytes.Buffer
			stats, err := e.Execute(ctx, q, &out)
			if err != nil {
				t.Fatalf("round %d: %s executing %s: %v", round, e.Name(), q, err)
			}
			got := canonicalise(t, out.String())
			if i == 0 {
				refOut, refMatched, refName = got, stats.Matched, e.Name()
				continue
			}
			if stats.Matched != refMatched {
				t.Fatalf("round %d: %s matched %d, %s matched %d for %s",
					round, e.Name(), stats.Matched, refName, refMatched, q)
			}
			if got != refOut {
				t.Fatalf("round %d: %s output differs from %s for %s:\n--- got ---\n%.500s\n--- want ---\n%.500s",
					round, e.Name(), refName, q, got, refOut)
			}
		}
		// Every engine must also agree with the reference evaluator, and
		// the compiled predicate must agree with the interpreted one on
		// every single document (the compiled-vs-reference differential).
		compiled := query.Compile(q.Filter)
		var evalMatched int64
		for di, d := range docs {
			m := q.Matches(d)
			if m {
				evalMatched++
			}
			if cm := compiled.Eval(d); cm != m {
				t.Fatalf("round %d: compiled predicate = %v, reference evaluator = %v on doc %d for %s",
					round, cm, m, di, q)
			}
		}
		if evalMatched != refMatched {
			t.Fatalf("round %d: engines matched %d, reference evaluator %d for %s",
				round, refMatched, evalMatched, q)
		}
	}
}

// clusteredDoc builds a fuzz document with a monotone /seq and a banded
// /bucket string, so datasets built from it in index order are clustered the
// way zone maps exploit: every shard covers a narrow seq range and a couple
// of bucket values.
func clusteredDoc(r *rand.Rand, i int) jsonval.Value {
	members := []jsonval.Member{
		{Key: "bucket", Value: jsonval.StringValue(fmt.Sprintf("b%02d", i/100))},
		{Key: "seq", Value: jsonval.IntValue(int64(i))},
	}
	for _, key := range []string{"a", "b"} {
		if r.Intn(4) > 0 {
			members = append(members, jsonval.Member{Key: key, Value: fuzzValue(r, 1)})
		}
	}
	return jsonval.ObjectValue(members...)
}

// selectivePredicate targets the clustered attributes so that a sound zone
// map can rule out most shards.
func selectivePredicate(r *rand.Rand, n int) query.Predicate {
	switch r.Intn(4) {
	case 0:
		return query.IntEq{Path: "/seq", Value: int64(r.Intn(n))}
	case 1:
		lo := float64(r.Intn(n - n/10))
		return query.And{
			Left:  query.FloatCmp{Path: "/seq", Op: query.Ge, Value: lo},
			Right: query.FloatCmp{Path: "/seq", Op: query.Lt, Value: lo + float64(1+r.Intn(n/10))},
		}
	case 2:
		return query.StrEq{Path: "/bucket", Value: fmt.Sprintf("b%02d", r.Intn(n/100))}
	default:
		return query.HasPrefix{Path: "/bucket", Prefix: fmt.Sprintf("b%d", r.Intn(n/1000))}
	}
}

// TestPruneDifferentialAcrossEngines is the cross-engine differential on
// selective predicates over clustered documents — the data a pruning scan
// would skip most of — optionally conjoined with random fuzz trees. Every
// engine must agree with the others and with the reference evaluator. Every
// fourth round also runs against a stored broad result of the corpus, still
// clustered.
func TestPruneDifferentialAcrossEngines(t *testing.T) {
	const n = 3000
	r := rand.New(rand.NewSource(4026))
	docs := make([]jsonval.Value, n)
	for i := range docs {
		docs[i] = clusteredDoc(r, i)
	}
	engines := allEngines(t, "pz", docs)
	ctx := context.Background()

	broad := query.FloatCmp{Path: "/seq", Op: query.Ge, Value: 100}
	var derived []jsonval.Value
	for _, d := range docs {
		if broad.Eval(d) {
			derived = append(derived, d)
		}
	}
	for _, e := range engines {
		if _, err := e.Execute(ctx, &query.Query{ID: "store", Base: "pz", Filter: broad, Store: "pzd"}, io.Discard); err != nil {
			t.Fatalf("%s storing the broad result: %v", e.Name(), err)
		}
	}

	// run executes q on every engine and requires them to agree with each
	// other and with the reference evaluator over src.
	run := func(round int, q *query.Query, src []jsonval.Value) {
		var refOut string
		var refMatched int64
		var refName string
		for i, e := range engines {
			var out bytes.Buffer
			stats, err := e.Execute(ctx, q, &out)
			if err != nil {
				t.Fatalf("round %d: %s executing %s: %v", round, e.Name(), q, err)
			}
			got := canonicalise(t, out.String())
			if i == 0 {
				refOut, refMatched, refName = got, stats.Matched, e.Name()
				continue
			}
			if stats.Matched != refMatched {
				t.Fatalf("round %d: %s matched %d, %s matched %d for %s",
					round, e.Name(), stats.Matched, refName, refMatched, q)
			}
			if got != refOut {
				t.Fatalf("round %d: %s output differs from %s for %s:\n--- got ---\n%.500s\n--- want ---\n%.500s",
					round, e.Name(), refName, q, got, refOut)
			}
		}
		var evalMatched int64
		for _, d := range src {
			if q.Matches(d) {
				evalMatched++
			}
		}
		if evalMatched != refMatched {
			t.Fatalf("round %d: engines matched %d, reference evaluator %d for %s",
				round, refMatched, evalMatched, q)
		}
	}

	const rounds = 80
	for round := 0; round < rounds; round++ {
		filter := selectivePredicate(r, n)
		if r.Intn(2) == 0 {
			filter = query.And{Left: filter, Right: fuzzPredicate(r, 1)}
		}
		run(round, &query.Query{ID: fmt.Sprintf("p%d", round), Base: "pz", Filter: filter}, docs)
		if round%4 == 0 {
			run(round, &query.Query{ID: fmt.Sprintf("d%d", round), Base: "pzd", Filter: filter}, derived)
		}
	}
}
