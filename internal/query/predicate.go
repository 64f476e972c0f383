// Package query defines BETZE's intermediate query representation (§IV-D of
// the paper) and a reference evaluator.
//
// A query names a base dataset, an optional dataset to store the result in,
// an optional filter-predicate tree — OR and AND as inner nodes, the nine
// filtering functions of §III-A as leaves — and an optional aggregation.
// Language modules (internal/langs) translate this representation into
// system-specific syntax; engines (internal/engine) execute it directly.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/joda-explore/betze/internal/jsonval"
)

// CmpOp is a comparison operator used by the numeric and size predicates.
type CmpOp uint8

// Supported comparison operators.
const (
	Lt CmpOp = iota // <
	Le              // <=
	Gt              // >
	Ge              // >=
	Eq              // ==
)

// String renders the operator in the internal syntax.
func (op CmpOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "=="
	default:
		return fmt.Sprintf("cmp(%d)", uint8(op))
	}
}

// Holds reports whether "a op b" is true.
func (op CmpOp) Holds(a, b float64) bool {
	switch op {
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	case Eq:
		return a == b
	default:
		return false
	}
}

// HoldsInt reports whether "a op b" is true for integers.
func (op CmpOp) HoldsInt(a, b int) bool {
	switch op {
	case Lt:
		return a < b
	case Le:
		return a <= b
	case Gt:
		return a > b
	case Ge:
		return a >= b
	case Eq:
		return a == b
	default:
		return false
	}
}

// Predicate is a node of the filter tree. Implementations are immutable and
// safe for concurrent evaluation.
type Predicate interface {
	// Eval reports whether the document satisfies the predicate.
	Eval(doc jsonval.Value) bool
	// String renders the predicate in BETZE's internal syntax, which is
	// also the canonical form used for duplicate suppression.
	String() string
}

// And is the logical conjunction of two predicates. The paper restricts
// inner nodes to binary AND/OR; deeper combinations nest.
type And struct {
	Left, Right Predicate
}

// Eval implements Predicate.
func (p And) Eval(doc jsonval.Value) bool { return p.Left.Eval(doc) && p.Right.Eval(doc) }

// String implements Predicate.
func (p And) String() string {
	return "(" + p.Left.String() + " && " + p.Right.String() + ")"
}

// Or is the logical disjunction of two predicates.
type Or struct {
	Left, Right Predicate
}

// Eval implements Predicate.
func (p Or) Eval(doc jsonval.Value) bool { return p.Left.Eval(doc) || p.Right.Eval(doc) }

// String implements Predicate.
func (p Or) String() string {
	return "(" + p.Left.String() + " || " + p.Right.String() + ")"
}

// Exists checks the existence of an attribute: EXISTS(<ptr>).
type Exists struct {
	Path jsonval.Path
}

// Eval implements Predicate.
func (p Exists) Eval(doc jsonval.Value) bool {
	_, ok := p.Path.Lookup(doc)
	return ok
}

// String implements Predicate.
func (p Exists) String() string { return "EXISTS('" + p.Path.String() + "')" }

// IsString checks that the attribute exists and is a string: ISSTRING(<ptr>).
type IsString struct {
	Path jsonval.Path
}

// Eval implements Predicate.
func (p IsString) Eval(doc jsonval.Value) bool {
	v, ok := p.Path.Lookup(doc)
	return ok && v.Kind() == jsonval.String
}

// String implements Predicate.
func (p IsString) String() string { return "ISSTRING('" + p.Path.String() + "')" }

// IntEq is the integer equality check: <ptr> == <int>. Like the systems
// BETZE targets, it matches any JSON number equal to the constant, so 5 and
// 5.0 both satisfy "== 5".
type IntEq struct {
	Path  jsonval.Path
	Value int64
}

// Eval implements Predicate.
func (p IntEq) Eval(doc jsonval.Value) bool {
	v, ok := p.Path.Lookup(doc)
	if !ok {
		return false
	}
	n, ok := v.Number()
	return ok && n == float64(p.Value)
}

// String implements Predicate.
func (p IntEq) String() string {
	return "'" + p.Path.String() + "' == " + strconv.FormatInt(p.Value, 10)
}

// FloatCmp compares a numeric attribute with a floating-point constant:
// <ptr> <comparison> <float>.
type FloatCmp struct {
	Path  jsonval.Path
	Op    CmpOp
	Value float64
}

// Eval implements Predicate.
func (p FloatCmp) Eval(doc jsonval.Value) bool {
	v, ok := p.Path.Lookup(doc)
	if !ok {
		return false
	}
	n, ok := v.Number()
	return ok && p.Op.Holds(n, p.Value)
}

// String implements Predicate.
func (p FloatCmp) String() string {
	return fmt.Sprintf("'%s' %s %s", p.Path, p.Op, strconv.FormatFloat(p.Value, 'g', -1, 64))
}

// StrEq is the string equality check: <ptr> == <string>.
type StrEq struct {
	Path  jsonval.Path
	Value string
}

// Eval implements Predicate.
func (p StrEq) Eval(doc jsonval.Value) bool {
	v, ok := p.Path.Lookup(doc)
	return ok && v.Kind() == jsonval.String && v.Str() == p.Value
}

// String implements Predicate.
func (p StrEq) String() string {
	return "'" + p.Path.String() + "' == " + strconv.Quote(p.Value)
}

// HasPrefix checks that the attribute is a string with the given prefix:
// HASPREFIX(<ptr>, <string>).
type HasPrefix struct {
	Path   jsonval.Path
	Prefix string
}

// Eval implements Predicate.
func (p HasPrefix) Eval(doc jsonval.Value) bool {
	v, ok := p.Path.Lookup(doc)
	return ok && v.Kind() == jsonval.String && strings.HasPrefix(v.Str(), p.Prefix)
}

// String implements Predicate.
func (p HasPrefix) String() string {
	return "HASPREFIX('" + p.Path.String() + "', " + strconv.Quote(p.Prefix) + ")"
}

// BoolEq is the boolean equality check: <ptr> == <bool>.
type BoolEq struct {
	Path  jsonval.Path
	Value bool
}

// Eval implements Predicate.
func (p BoolEq) Eval(doc jsonval.Value) bool {
	v, ok := p.Path.Lookup(doc)
	return ok && v.Kind() == jsonval.Bool && v.Bool() == p.Value
}

// String implements Predicate.
func (p BoolEq) String() string {
	return "'" + p.Path.String() + "' == " + strconv.FormatBool(p.Value)
}

// ArrSize compares the size of an array attribute with a constant:
// ARRSIZE(<ptr>) <comparison> <int>.
type ArrSize struct {
	Path  jsonval.Path
	Op    CmpOp
	Value int
}

// Eval implements Predicate.
func (p ArrSize) Eval(doc jsonval.Value) bool {
	v, ok := p.Path.Lookup(doc)
	return ok && v.Kind() == jsonval.Array && p.Op.HoldsInt(v.Len(), p.Value)
}

// String implements Predicate.
func (p ArrSize) String() string {
	return fmt.Sprintf("ARRSIZE('%s') %s %d", p.Path, p.Op, p.Value)
}

// ObjSize compares the number of children of an object attribute with a
// constant: OBJSIZE(<ptr>) <comparison> <int>.
type ObjSize struct {
	Path  jsonval.Path
	Op    CmpOp
	Value int
}

// Eval implements Predicate.
func (p ObjSize) Eval(doc jsonval.Value) bool {
	v, ok := p.Path.Lookup(doc)
	return ok && v.Kind() == jsonval.Object && p.Op.HoldsInt(v.Len(), p.Value)
}

// String implements Predicate.
func (p ObjSize) String() string {
	return fmt.Sprintf("OBJSIZE('%s') %s %d", p.Path, p.Op, p.Value)
}

// Walk visits every node of the predicate tree in depth-first order. A nil
// predicate is a no-op.
func Walk(p Predicate, visit func(Predicate)) {
	if p == nil {
		return
	}
	visit(p)
	switch n := p.(type) {
	case And:
		Walk(n.Left, visit)
		Walk(n.Right, visit)
	case Or:
		Walk(n.Left, visit)
		Walk(n.Right, visit)
	}
}

// Leaves returns the leaf predicates of the tree in depth-first order.
func Leaves(p Predicate) []Predicate {
	var out []Predicate
	Walk(p, func(n Predicate) {
		switch n.(type) {
		case And, Or:
		default:
			out = append(out, n)
		}
	})
	return out
}

// LeafPath returns the attribute path referenced by a leaf predicate, and
// false for inner nodes.
func LeafPath(p Predicate) (jsonval.Path, bool) {
	switch n := p.(type) {
	case Exists:
		return n.Path, true
	case IsString:
		return n.Path, true
	case IntEq:
		return n.Path, true
	case FloatCmp:
		return n.Path, true
	case StrEq:
		return n.Path, true
	case HasPrefix:
		return n.Path, true
	case BoolEq:
		return n.Path, true
	case ArrSize:
		return n.Path, true
	case ObjSize:
		return n.Path, true
	default:
		return jsonval.RootPath, false
	}
}

// LeafKind names the predicate type of a leaf for reporting (Fig. 8 of the
// paper groups generated predicates by these names).
func LeafKind(p Predicate) string {
	switch p.(type) {
	case Exists:
		return "exists"
	case IsString:
		return "isstring"
	case IntEq:
		return "int-eq"
	case FloatCmp:
		return "float-cmp"
	case StrEq:
		return "str-eq"
	case HasPrefix:
		return "hasprefix"
	case BoolEq:
		return "bool-eq"
	case ArrSize:
		return "arrsize"
	case ObjSize:
		return "objsize"
	case And:
		return "and"
	case Or:
		return "or"
	default:
		return "unknown"
	}
}
