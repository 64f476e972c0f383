package query

import (
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/joda-explore/betze/internal/jsonval"
)

// TestCompileMatchesEvalFuzz is the in-package differential check: random
// predicate trees must evaluate identically compiled and interpreted, across
// random documents. The cross-engine variant lives in internal/engine's
// differential test.
func TestCompileMatchesEvalFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for round := 0; round < 500; round++ {
		p := randomPredicate(r, 3)
		c := Compile(p)
		m := CompileLookup(p, lookupJSON, decodeJSON)
		for i := 0; i < 20; i++ {
			doc := randomSmallDoc(r)
			want := p.Eval(doc)
			if got := c.Eval(doc); got != want {
				t.Fatalf("round %d: compiled=%v interpreted=%v for %s over %s", round, got, want, p, doc)
			}
			if got, err := m.Match(doc); got != want || err != nil {
				t.Fatalf("round %d: lookup-compiled=%v, %v interpreted=%v for %s over %s", round, got, err, want, p, doc)
			}
		}
	}
}

// lookupJSON and decodeJSON resolve parsed documents the way a
// lookup-based storage format does: one walk per evaluated leaf.
func lookupJSON(doc jsonval.Value, steps []string) (valueRef, bool, error) {
	v, ok := jsonval.LookupSteps(doc, steps)
	return valueRef{&v}, ok, nil
}

func decodeJSON(doc jsonval.Value) (jsonval.Value, error) { return doc, nil }

func TestCompileNilAndZeroValueMatchEverything(t *testing.T) {
	doc := jsonval.ObjectValue(jsonval.Member{Key: "a", Value: jsonval.IntValue(1)})
	if !Compile(nil).Eval(doc) {
		t.Error("Compile(nil) rejected a document")
	}
	var zero CompiledPredicate
	if !zero.Eval(doc) {
		t.Error("zero CompiledPredicate rejected a document")
	}
	if ok, err := CompileLookup(nil, lookupJSON, decodeJSON).Match(doc); !ok || err != nil {
		t.Errorf("CompileLookup(nil) = %v, %v", ok, err)
	}
	var zeroMatcher Matcher[jsonval.Value]
	if ok, err := zeroMatcher.Match(doc); !ok || err != nil {
		t.Errorf("zero Matcher = %v, %v", ok, err)
	}
}

// TestCompileConstantFolds pins the folds the compiler performs: root
// existence, unsatisfiable size comparisons, empty prefixes, and constant
// propagation through AND/OR.
func TestCompileConstantFolds(t *testing.T) {
	docs := []jsonval.Value{
		jsonval.ObjectValue(
			jsonval.Member{Key: "s", Value: jsonval.StringValue("hello")},
			jsonval.Member{Key: "arr", Value: jsonval.ArrayValue(jsonval.IntValue(1))},
		),
		jsonval.ObjectValue(),
	}
	cases := []struct {
		name string
		pred Predicate
	}{
		{"exists root", Exists{Path: jsonval.RootPath}},
		{"arrsize lt zero", ArrSize{Path: "/arr", Op: Lt, Value: 0}},
		{"arrsize eq negative", ArrSize{Path: "/arr", Op: Eq, Value: -1}},
		{"objsize le negative", ObjSize{Path: "/o", Op: Le, Value: -2}},
		{"empty prefix is type check", HasPrefix{Path: "/s", Prefix: ""}},
		{"and with const true", And{Left: Exists{Path: jsonval.RootPath}, Right: IsString{Path: "/s"}}},
		{"and with const false", And{Left: ArrSize{Path: "/arr", Op: Lt, Value: 0}, Right: IsString{Path: "/s"}}},
		{"or with const true", Or{Left: Exists{Path: jsonval.RootPath}, Right: IsString{Path: "/s"}}},
		{"or with const false", Or{Left: ArrSize{Path: "/arr", Op: Lt, Value: -5}, Right: IsString{Path: "/s"}}},
		{"unknown operator on arrsize", ArrSize{Path: "/arr", Op: CmpOp(99), Value: 1}},
		{"unknown operator on objsize", ObjSize{Path: jsonval.RootPath, Op: CmpOp(99), Value: 0}},
		{"unknown operator on floatcmp", FloatCmp{Path: "/arr", Op: CmpOp(99), Value: 1}},
	}
	for _, c := range cases {
		compiled := Compile(c.pred)
		for _, doc := range docs {
			if got, want := compiled.Eval(doc), c.pred.Eval(doc); got != want {
				t.Errorf("%s: compiled=%v interpreted=%v over %s", c.name, got, want, doc)
			}
		}
	}
	// The folds themselves: a fully-constant tree compiles to zero cost.
	if c := Compile(Exists{Path: jsonval.RootPath}); c.Cost() != 0 {
		t.Errorf("EXISTS('/') compiled to cost %d, want folded constant", c.Cost())
	}
	if c := Compile(ArrSize{Path: "/arr", Op: Lt, Value: 0}); c.Cost() != 0 {
		t.Errorf("ARRSIZE < 0 compiled to cost %d, want folded constant", c.Cost())
	}
	if c := Compile(ObjSize{Path: "/o", Op: CmpOp(99), Value: 1}); c.Cost() != 0 {
		t.Errorf("OBJSIZE with an unknown operator compiled to cost %d, want folded constant", c.Cost())
	}
}

// countingLeaf counts its evaluations; compiled through the external-leaf
// fallback it carries the analyzer's most-expensive static cost, so the cost
// model must schedule the cheap Exists operand before it.
type countingLeaf struct {
	calls *atomic.Int64
	out   bool
}

func (c countingLeaf) Eval(jsonval.Value) bool {
	c.calls.Add(1)
	return c.out
}
func (c countingLeaf) String() string { return "COUNTING" }

// TestCompileOrdersCheapOperandFirst asserts the cost model's observable
// effect: with AND, a failing cheap existence check short-circuits the
// expensive operand away regardless of source order; with OR, a succeeding
// cheap check does.
func TestCompileOrdersCheapOperandFirst(t *testing.T) {
	doc := jsonval.ObjectValue(jsonval.Member{Key: "present", Value: jsonval.IntValue(1)})

	var calls atomic.Int64
	expensive := countingLeaf{calls: &calls, out: true}
	missing := Exists{Path: "/absent"}
	for _, p := range []Predicate{
		And{Left: expensive, Right: missing},
		And{Left: missing, Right: expensive},
	} {
		calls.Store(0)
		c := Compile(p)
		for i := 0; i < 10; i++ {
			if c.Eval(doc) {
				t.Fatalf("%s matched", p)
			}
		}
		if calls.Load() != 0 {
			t.Errorf("expensive operand of %s evaluated %d times; cheap failing check should short-circuit", p, calls.Load())
		}
	}

	present := Exists{Path: "/present"}
	for _, p := range []Predicate{
		Or{Left: expensive, Right: present},
		Or{Left: present, Right: expensive},
	} {
		calls.Store(0)
		c := Compile(p)
		for i := 0; i < 10; i++ {
			if !c.Eval(doc) {
				t.Fatalf("%s did not match", p)
			}
		}
		if calls.Load() != 0 {
			t.Errorf("expensive operand of %s evaluated %d times; cheap succeeding check should short-circuit", p, calls.Load())
		}
	}

	// On a lookup-based format the cheap operand is also the first — and
	// only — path resolved, and the external leaf's document is never
	// decoded.
	var resolved []string
	decodes := 0
	countingLookup := func(doc jsonval.Value, steps []string) (valueRef, bool, error) {
		resolved = append(resolved, strings.Join(steps, "/"))
		return lookupJSON(doc, steps)
	}
	countingDecode := func(doc jsonval.Value) (jsonval.Value, error) {
		decodes++
		return doc, nil
	}
	prefix := HasPrefix{Path: "/present", Prefix: "x"}
	for _, tc := range []struct {
		p    Predicate
		want bool
		path string
	}{
		{And{Left: prefix, Right: missing}, false, "absent"},
		{And{Left: missing, Right: And{Left: expensive, Right: prefix}}, false, "absent"},
		{Or{Left: prefix, Right: present}, true, "present"},
		{Or{Left: expensive, Right: present}, true, "present"},
	} {
		resolved, decodes = nil, 0
		m := CompileLookup(tc.p, countingLookup, countingDecode)
		if got, err := m.Match(doc); got != tc.want || err != nil {
			t.Fatalf("%s = %v, %v", tc.p, got, err)
		}
		if len(resolved) != 1 || resolved[0] != tc.path || decodes != 0 {
			t.Errorf("%s resolved %q and decoded %d times; want only %q", tc.p, resolved, decodes, tc.path)
		}
	}
}

// TestEvaluatorMatchesEvalFuzz checks the reusable-evaluator entry points
// against the interpreted reference: reusing one Evaluator across many
// documents (the scan-worker pattern) must agree with Predicate.Eval.
func TestEvaluatorMatchesEvalFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for round := 0; round < 300; round++ {
		p := randomPredicate(r, 3)
		e := Compile(p).Evaluator()
		for i := 0; i < 20; i++ {
			doc := randomSmallDoc(r)
			want := p.Eval(doc)
			if got := e.EvalAt(&doc); got != want {
				t.Fatalf("round %d: Evaluator.EvalAt=%v interpreted=%v for %s over %s", round, got, want, p, doc)
			}
		}
	}
}

func TestEvaluatorZeroAndNil(t *testing.T) {
	doc := jsonval.ObjectValue(jsonval.Member{Key: "a", Value: jsonval.IntValue(1)})
	e := Compile(nil).Evaluator()
	if !e.EvalAt(&doc) {
		t.Error("Evaluator of Compile(nil) rejected a document")
	}
}

// TestCompiledLeafZeroAllocs is the allocation regression gate of the
// compiled hot path: evaluating compiled leaf predicates (every kind, hit
// and miss, shallow and nested) must not allocate.
func TestCompiledLeafZeroAllocs(t *testing.T) {
	doc := jsonval.ObjectValue(
		jsonval.Member{Key: "s", Value: jsonval.StringValue("hello world")},
		jsonval.Member{Key: "n", Value: jsonval.IntValue(7)},
		jsonval.Member{Key: "f", Value: jsonval.FloatValue(2.5)},
		jsonval.Member{Key: "b", Value: jsonval.BoolValue(true)},
		jsonval.Member{Key: "arr", Value: jsonval.ArrayValue(jsonval.IntValue(1), jsonval.IntValue(2))},
		jsonval.Member{Key: "nest", Value: jsonval.ObjectValue(
			jsonval.Member{Key: "deep", Value: jsonval.StringValue("x")},
		)},
	)
	leaves := []Predicate{
		Exists{Path: "/s"},
		Exists{Path: "/nest/deep"},
		Exists{Path: "/missing/deeper"},
		IsString{Path: "/s"},
		IntEq{Path: "/n", Value: 7},
		FloatCmp{Path: "/f", Op: Ge, Value: 1},
		StrEq{Path: "/s", Value: "hello world"},
		HasPrefix{Path: "/s", Prefix: "hello"},
		BoolEq{Path: "/b", Value: true},
		ArrSize{Path: "/arr", Op: Eq, Value: 2},
		ObjSize{Path: "/nest", Op: Ge, Value: 1},
	}
	for _, leaf := range leaves {
		c := Compile(leaf)
		var sink bool
		if n := testing.AllocsPerRun(200, func() { sink = c.Eval(doc) }); n != 0 {
			t.Errorf("compiled %s allocates %v per Eval, want 0", leaf, n)
		}
		_ = sink
	}
	// A composed tree must stay allocation-free too.
	tree := And{
		Left:  Or{Left: Exists{Path: "/missing"}, Right: HasPrefix{Path: "/s", Prefix: "hel"}},
		Right: And{Left: FloatCmp{Path: "/n", Op: Gt, Value: 0}, Right: ObjSize{Path: "/nest", Op: Ge, Value: 1}},
	}
	c := Compile(tree)
	if n := testing.AllocsPerRun(200, func() { c.Eval(doc) }); n != 0 {
		t.Errorf("compiled tree allocates %v per Eval, want 0", n)
	}
	// The reusable evaluator is the scan-worker hot path; it must be
	// allocation-free in steady state.
	e := c.Evaluator()
	if n := testing.AllocsPerRun(200, func() { e.EvalAt(&doc) }); n != 0 {
		t.Errorf("Evaluator.EvalAt allocates %v per call, want 0", n)
	}
}

// TestCompileLookupReportsErrors: a failed lookup or decode is the verdict
// of the whole evaluation, even where the tree would otherwise match, and
// the next evaluation starts clean.
func TestCompileLookupReportsErrors(t *testing.T) {
	broken := errors.New("corrupt")
	lookup := func(doc jsonval.Value, steps []string) (valueRef, bool, error) {
		if steps[0] == "bad" {
			return valueRef{}, false, broken
		}
		return lookupJSON(doc, steps)
	}
	decode := func(jsonval.Value) (jsonval.Value, error) { return jsonval.Value{}, broken }
	good := jsonval.ObjectValue(jsonval.Member{Key: "present", Value: jsonval.IntValue(1)})
	for _, p := range []Predicate{
		Or{Left: Exists{Path: "/bad"}, Right: IntEq{Path: "/present", Value: 1}},
		Or{Left: opaquePredicate{}, Right: Exists{Path: "/absent"}},
	} {
		m := CompileLookup(p, lookup, decode)
		for i := 0; i < 2; i++ {
			if ok, err := m.Match(good); ok || !errors.Is(err, broken) {
				t.Errorf("%s = %v, %v; want the lookup error", p, ok, err)
			}
		}
	}
	m := CompileLookup(Exists{Path: "/present"}, lookup, decode)
	if ok, err := m.Match(good); !ok || err != nil {
		t.Errorf("clean lookup = %v, %v", ok, err)
	}
}
