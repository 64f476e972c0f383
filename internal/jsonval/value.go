// Package jsonval provides a typed JSON value model used throughout BETZE.
//
// Unlike encoding/json's interface{} representation, jsonval distinguishes
// integer from floating-point numbers (the dataset analyzer keeps separate
// statistics for them, cf. §IV-A of the paper) and preserves object member
// order, which keeps serialisation deterministic for seeded benchmark runs.
//
// A Value is three words — base pointer, payload-or-length, kind — so that
// copying one (every Field result, every element a scan touches) moves 24
// bytes. Strings, arrays and objects are base pointer plus length, rebuilt
// with unsafe.String / unsafe.Slice inside the accessors; no other package
// sees the layout, and -race (checkptr) checks every rebuild. The Parser
// builds values in slabs it reuses only when its caller recycles it, so a
// Value stays valid while it is referenced — and keeps the chunks it points
// into alive: whatever outlives its document must copy what it keeps of a
// Str or a member Key.
package jsonval

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Kind enumerates the JSON types recognised by BETZE.
type Kind uint8

// The seven kinds. Int and Float are both JSON numbers; the parser assigns
// Int to numbers without fraction or exponent that fit in int64.
const (
	Null Kind = iota
	Bool
	Int
	Float
	String
	Object
	Array
)

// String returns the lower-case name of the kind, matching the type names
// used in BETZE analysis files.
func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	case Object:
		return "object"
	case Array:
		return "array"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Member is a single key/value pair of a JSON object.
type Member struct {
	Key   string
	Value Value
}

// Value is an immutable JSON value. The zero Value is JSON null.
type Value struct {
	p    unsafe.Pointer // first byte (String), element (Array) or member (Object)
	n    uint64         // Int payload, Float bits, Bool 0/1, or the length of what p points to
	kind Kind
}

// Constructors.

// NullValue returns the JSON null value.
func NullValue() Value { return Value{kind: Null} }

// BoolValue returns a JSON boolean.
func BoolValue(b bool) Value {
	if b {
		return Value{kind: Bool, n: 1}
	}
	return Value{kind: Bool}
}

// IntValue returns a JSON integer number.
func IntValue(n int64) Value { return Value{kind: Int, n: uint64(n)} }

// FloatValue returns a JSON floating-point number.
func FloatValue(f float64) Value { return Value{kind: Float, n: math.Float64bits(f)} }

// StringValue returns a JSON string.
func StringValue(s string) Value {
	return Value{kind: String, p: unsafe.Pointer(unsafe.StringData(s)), n: uint64(len(s))}
}

// ArrayValue returns a JSON array wrapping elems. The slice is not copied;
// callers must not mutate it afterwards.
func ArrayValue(elems ...Value) Value {
	return Value{kind: Array, p: unsafe.Pointer(unsafe.SliceData(elems)), n: uint64(len(elems))}
}

// ObjectValue returns a JSON object with the given members in order. The
// slice is not copied; callers must not mutate it afterwards.
func ObjectValue(members ...Member) Value {
	return Value{kind: Object, p: unsafe.Pointer(unsafe.SliceData(members)), n: uint64(len(members))}
}

// The payload views. Each is valid only for the kind that stored it; the
// exported accessors check the kind first.
func (v Value) boolean() bool  { return v.n != 0 }
func (v Value) int() int64     { return int64(v.n) }
func (v Value) float() float64 { return math.Float64frombits(v.n) }
func (v Value) str() string    { return unsafe.String((*byte)(v.p), int(v.n)) }
func (v Value) elems() []Value { return unsafe.Slice((*Value)(v.p), int(v.n)) }
func (v Value) mems() []Member { return unsafe.Slice((*Member)(v.p), int(v.n)) }

// Kind reports the JSON type of the value.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is JSON null.
func (v Value) IsNull() bool { return v.kind == Null }

// Bool returns the boolean payload; it panics unless Kind is Bool.
func (v Value) Bool() bool {
	v.mustBe(Bool)
	return v.boolean()
}

// Int returns the integer payload; it panics unless Kind is Int.
func (v Value) Int() int64 {
	v.mustBe(Int)
	return v.int()
}

// Float returns the floating-point payload; it panics unless Kind is Float.
func (v Value) Float() float64 {
	v.mustBe(Float)
	return v.float()
}

// Number returns the numeric payload as float64 for Int or Float kinds.
func (v Value) Number() (float64, bool) {
	switch v.kind {
	case Int:
		return float64(v.int()), true
	case Float:
		return v.float(), true
	default:
		return 0, false
	}
}

// Str returns the string payload; it panics unless Kind is String.
func (v Value) Str() string {
	v.mustBe(String)
	return v.str()
}

// Array returns the element slice; it panics unless Kind is Array. The
// returned slice must not be mutated.
func (v Value) Array() []Value {
	v.mustBe(Array)
	return v.elems()
}

// Members returns the member slice; it panics unless Kind is Object. The
// returned slice must not be mutated.
func (v Value) Members() []Member {
	v.mustBe(Object)
	return v.mems()
}

// Len returns the number of elements (Array), members (Object) or bytes
// (String). Other kinds have length 0.
func (v Value) Len() int {
	switch v.kind {
	case Array, Object, String:
		return int(v.n)
	default:
		return 0
	}
}

// Field looks up a direct member of an object by key. It returns false if v
// is not an object or the key is absent. Lookup is linear: BETZE documents
// have small fan-out and member order is semantically meaningful.
func (v Value) Field(key string) (Value, bool) {
	if v.kind != Object {
		return Value{}, false
	}
	// Index rather than range: a range would copy each 40-byte Member.
	members := v.mems()
	for i := range members {
		if members[i].Key == key {
			return members[i].Value, true
		}
	}
	return Value{}, false
}

// Index returns the i-th array element.
func (v Value) Index(i int) (Value, bool) {
	if v.kind != Array || i < 0 || i >= int(v.n) {
		return Value{}, false
	}
	return v.elems()[i], true
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("jsonval: %s value accessed as %s", v.kind, k))
	}
}

// Equal reports deep equality. Int and Float compare equal when they denote
// the same mathematical number (5 == 5.0), matching how BETZE predicates
// treat JSON numbers. Objects compare member-order-insensitively.
func (v Value) Equal(w Value) bool {
	if nv, ok := v.Number(); ok {
		nw, okw := w.Number()
		return okw && nv == nw
	}
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case Null:
		return true
	case Bool:
		return v.n == w.n
	case String:
		return v.str() == w.str()
	case Array:
		if v.n != w.n {
			return false
		}
		we := w.elems()
		for i, e := range v.elems() {
			if !e.Equal(we[i]) {
				return false
			}
		}
		return true
	case Object:
		if v.n != w.n {
			return false
		}
		for _, m := range v.mems() {
			wv, ok := w.Field(m.Key)
			if !ok || !m.Value.Equal(wv) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Compare orders two values for deterministic sorting of aggregation groups.
// Values of different kinds order by kind; numbers compare numerically across
// Int/Float.
func (v Value) Compare(w Value) int {
	nv, okv := v.Number()
	nw, okw := w.Number()
	if okv && okw {
		switch {
		case nv < nw:
			return -1
		case nv > nw:
			return 1
		default:
			return 0
		}
	}
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case Null:
		return 0
	case Bool:
		return int(v.n) - int(w.n)
	case String:
		return strings.Compare(v.str(), w.str())
	case Array:
		ve, we := v.elems(), w.elems()
		for i := 0; i < len(ve) && i < len(we); i++ {
			if c := ve[i].Compare(we[i]); c != 0 {
				return c
			}
		}
		return len(ve) - len(we)
	case Object:
		// Compare canonical serialisations; objects rarely act as group keys.
		return strings.Compare(v.String(), w.String())
	default:
		return 0
	}
}

// GroupKey returns a string that uniquely identifies the value for use as an
// aggregation group key. Distinct values map to distinct keys.
func (v Value) GroupKey() string {
	var sb strings.Builder
	v.groupKey(&sb)
	return sb.String()
}

func (v Value) groupKey(sb *strings.Builder) {
	switch v.kind {
	case Null:
		sb.WriteString("n")
	case Bool:
		if v.boolean() {
			sb.WriteString("t")
		} else {
			sb.WriteString("f")
		}
	case Int:
		sb.WriteByte('i')
		sb.WriteString(strconv.FormatInt(v.int(), 10))
	case Float:
		f := v.float()
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			// Align with equal ints so 5 and 5.0 group together.
			sb.WriteByte('i')
			sb.WriteString(strconv.FormatInt(int64(f), 10))
			return
		}
		sb.WriteByte('d')
		sb.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	case String:
		s := v.str()
		sb.WriteByte('s')
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
	case Array:
		sb.WriteByte('[')
		for _, e := range v.elems() {
			e.groupKey(sb)
			sb.WriteByte(',')
		}
		sb.WriteByte(']')
	case Object:
		// Canonical order so member order does not split groups.
		keys := make([]string, v.n)
		for i, m := range v.mems() {
			keys[i] = m.Key
		}
		sort.Strings(keys)
		sb.WriteByte('{')
		for _, k := range keys {
			mv, _ := v.Field(k)
			sb.WriteString(strconv.Itoa(len(k)))
			sb.WriteByte(':')
			sb.WriteString(k)
			sb.WriteByte('=')
			mv.groupKey(sb)
			sb.WriteByte(',')
		}
		sb.WriteByte('}')
	}
}

// String renders the value as compact JSON text.
func (v Value) String() string {
	var sb strings.Builder
	writeValue(&sb, v)
	return sb.String()
}
