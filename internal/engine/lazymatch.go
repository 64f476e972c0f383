package engine

import (
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// RawValue is an undecoded value inside a binary document, as the binary
// formats' path lookups return it (bsonlite.Raw, jsonblite.Raw).
type RawValue interface {
	Kind() jsonval.Kind
	Number() (float64, bool)
	Bool() (bool, bool)
	EqualString(s string) bool
	HasPrefix(prefix string) bool
	Len() (int, bool)
}

// CompileLazy builds the per-query matcher of a binary-format engine: the
// filter tree is interpreted and every leaf's path split once, here, and the
// returned function evaluates one stored document D by resolving each leaf
// through lookup — in the filter's own order, short-circuiting AND/OR, one
// lookup per evaluated leaf — and testing the raw value in place. A nil
// filter matches everything. Predicate types this package does not know are
// evaluated on the tree decode returns.
func CompileLazy[D any, R RawValue](p query.Predicate, lookup func(D, []string) (R, bool, error), decode func(D) (jsonval.Value, error)) func(D) (bool, error) {
	switch n := p.(type) {
	case nil:
		return func(D) (bool, error) { return true, nil }
	case query.And:
		left, right := CompileLazy(n.Left, lookup, decode), CompileLazy(n.Right, lookup, decode)
		return func(doc D) (bool, error) {
			if ok, err := left(doc); err != nil || !ok {
				return false, err
			}
			return right(doc)
		}
	case query.Or:
		left, right := CompileLazy(n.Left, lookup, decode), CompileLazy(n.Right, lookup, decode)
		return func(doc D) (bool, error) {
			if ok, err := left(doc); err != nil || ok {
				return ok, err
			}
			return right(doc)
		}
	}
	var test func(R) bool
	switch n := p.(type) {
	case query.Exists:
		test = func(R) bool { return true }
	case query.IsString:
		test = func(r R) bool { return r.Kind() == jsonval.String }
	case query.IntEq:
		want := float64(n.Value)
		test = func(r R) bool { num, ok := r.Number(); return ok && num == want }
	case query.FloatCmp:
		test = func(r R) bool { num, ok := r.Number(); return ok && n.Op.Holds(num, n.Value) }
	case query.StrEq:
		test = func(r R) bool { return r.EqualString(n.Value) }
	case query.HasPrefix:
		test = func(r R) bool { return r.HasPrefix(n.Prefix) }
	case query.BoolEq:
		test = func(r R) bool { b, ok := r.Bool(); return ok && b == n.Value }
	case query.ArrSize:
		test = sizeTest[R](jsonval.Array, n.Op, n.Value)
	case query.ObjSize:
		test = sizeTest[R](jsonval.Object, n.Op, n.Value)
	default:
		return func(doc D) (bool, error) {
			v, err := decode(doc)
			if err != nil {
				return false, err
			}
			return p.Eval(v), nil
		}
	}
	path, _ := query.LeafPath(p)
	steps := path.Steps()
	return func(doc D) (bool, error) {
		r, ok, err := lookup(doc, steps)
		if err != nil || !ok {
			return false, err
		}
		return test(r), nil
	}
}

func sizeTest[R RawValue](kind jsonval.Kind, op query.CmpOp, want int) func(R) bool {
	return func(r R) bool {
		if r.Kind() != kind {
			return false
		}
		n, ok := r.Len()
		return ok && op.HoldsInt(n, want)
	}
}
