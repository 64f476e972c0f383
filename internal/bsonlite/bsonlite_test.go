package bsonlite

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/jsonval"
)

func doc(t *testing.T, s string) jsonval.Value {
	t.Helper()
	v, err := jsonval.Parse([]byte(s))
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return v
}

// strictEqual mirrors jsonval round-trip equality including kinds and order.
func strictEqual(a, b jsonval.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case jsonval.Null:
		return true
	case jsonval.Bool:
		return a.Bool() == b.Bool()
	case jsonval.Int:
		return a.Int() == b.Int()
	case jsonval.Float:
		return a.Float() == b.Float() || (math.IsNaN(a.Float()) && math.IsNaN(b.Float()))
	case jsonval.String:
		return a.Str() == b.Str()
	case jsonval.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Array() {
			if !strictEqual(a.Array()[i], b.Array()[i]) {
				return false
			}
		}
		return true
	case jsonval.Object:
		am, bm := a.Members(), b.Members()
		if len(am) != len(bm) {
			return false
		}
		for i := range am {
			if am[i].Key != bm[i].Key || !strictEqual(am[i].Value, bm[i].Value) {
				return false
			}
		}
		return true
	}
	return false
}

var roundTripDocs = []string{
	`{}`,
	`{"a":1}`,
	`{"a":null,"b":true,"c":false}`,
	`{"n":-9223372036854775808,"m":9223372036854775807}`,
	`{"f":2.5,"g":-0.125,"h":1e300}`,
	`{"s":"","t":"hello","u":"üñï😀"}`,
	`{"arr":[1,"two",3.0,null,true,[4],{"five":5}]}`,
	`{"deep":{"a":{"b":{"c":{"d":[1,2,3]}}}}}`,
	`{"order":"kept","zzz":1,"aaa":2}`,
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, s := range roundTripDocs {
		v := doc(t, s)
		data := Encode(nil, v)
		back, err := Decode(data)
		if err != nil {
			t.Errorf("Decode(%s): %v", s, err)
			continue
		}
		if !strictEqual(v, back) {
			t.Errorf("round trip of %s gave %s", s, back)
		}
	}
}

func TestEncodeNonObjectRoot(t *testing.T) {
	for _, s := range []string{`[1,2]`, `"str"`, `5`, `true`, `null`} {
		v := doc(t, s)
		back, err := Decode(Encode(nil, v))
		if err != nil {
			t.Fatalf("Decode(%s): %v", s, err)
		}
		if !strictEqual(v, back) {
			t.Errorf("round trip of %s gave %s (%v)", s, back, back.Kind())
		}
	}
}

func TestLookup(t *testing.T) {
	data := Encode(nil, doc(t, `{"user":{"name":"alice","id":7,"score":2.5,"ok":true,"tags":["a","b"],"nil":null},"top":1}`))
	cases := []struct {
		path string
		kind jsonval.Kind
	}{
		{"/user", jsonval.Object},
		{"/user/name", jsonval.String},
		{"/user/id", jsonval.Int},
		{"/user/score", jsonval.Float},
		{"/user/ok", jsonval.Bool},
		{"/user/tags", jsonval.Array},
		{"/user/nil", jsonval.Null},
		{"/top", jsonval.Int},
	}
	for _, c := range cases {
		raw, ok, err := Lookup(data, jsonval.ParsePath(c.path))
		if err != nil || !ok {
			t.Errorf("Lookup(%s) = %v, %v", c.path, ok, err)
			continue
		}
		if raw.Kind() != c.kind {
			t.Errorf("Lookup(%s) kind = %v, want %v", c.path, raw.Kind(), c.kind)
		}
	}
	for _, missing := range []string{"/nope", "/user/nope", "/top/deeper", "/user/name/deeper"} {
		if _, ok, err := Lookup(data, jsonval.ParsePath(missing)); ok || err != nil {
			t.Errorf("Lookup(%s) = %v, %v; want not found", missing, ok, err)
		}
	}
}

func TestRawAccessors(t *testing.T) {
	data := Encode(nil, doc(t, `{"i":42,"f":1.5,"s":"txt","b":true,"o":{"x":1,"y":2},"a":[1,2,3]}`))
	get := func(p string) Raw {
		raw, ok, err := Lookup(data, jsonval.ParsePath(p))
		if !ok || err != nil {
			t.Fatalf("Lookup(%s): %v %v", p, ok, err)
		}
		return raw
	}
	if n, ok := get("/i").Number(); !ok || n != 42 {
		t.Errorf("int Number = %g, %v", n, ok)
	}
	if n, ok := get("/f").Number(); !ok || n != 1.5 {
		t.Errorf("float Number = %g, %v", n, ok)
	}
	if s := get("/s"); !s.EqualString("txt") || s.EqualString("tx") || !s.HasPrefix("tx") || s.HasPrefix("txts") {
		t.Errorf("EqualString/HasPrefix disagree with the payload %q", "txt")
	}
	if get("/i").EqualString("42") || get("/i").HasPrefix("") {
		t.Errorf("non-string matched a string test")
	}
	if b, ok := get("/b").Bool(); !ok || !b {
		t.Errorf("Bool = %v, %v", b, ok)
	}
	if l, ok := get("/o").Len(); !ok || l != 2 {
		t.Errorf("object Len = %d, %v", l, ok)
	}
	if l, ok := get("/a").Len(); !ok || l != 3 {
		t.Errorf("array Len = %d, %v", l, ok)
	}
	if _, ok := get("/s").Number(); ok {
		t.Errorf("string produced a Number")
	}
	if v, err := get("/o").Value(); err != nil || v.Len() != 2 {
		t.Errorf("Value() = %s, %v", v, err)
	}
}

func TestArrayEncodedWithIndexKeys(t *testing.T) {
	// Arrays materialise as arrays, not index-keyed objects.
	back, err := Decode(Encode(nil, doc(t, `{"a":[10,20]}`)))
	if err != nil {
		t.Fatal(err)
	}
	arr, _ := back.Field("a")
	if arr.Kind() != jsonval.Array {
		t.Fatalf("array decoded as %v", arr.Kind())
	}
	if e, _ := arr.Index(1); e.Int() != 20 {
		t.Errorf("a[1] = %s", e)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	valid := Encode(nil, doc(t, `{"a":1,"s":"xy"}`))
	cases := [][]byte{
		nil,
		{1, 2, 3},
		valid[:len(valid)-2],           // truncated
		append([]byte{}, valid[4:]...), // header stripped
		func() []byte { // length field lies
			c := append([]byte{}, valid...)
			c[0] = byte(len(c) + 50)
			return c
		}(),
		func() []byte { // unknown tag
			c := append([]byte{}, valid...)
			c[4] = 0x7F
			return c
		}(),
		func() []byte { // a wrapper mark past the first element
			c := append([]byte{}, valid...)
			c[len(c)-11] |= tagRoot
			return c
		}(),
		func() []byte { // a wrapped object
			c := Encode(nil, doc(t, `{"":{"a":1}}`))
			c[4] |= tagRoot
			return c
		}(),
		func() []byte { // a wrapper around two values
			c := append([]byte{}, valid...)
			c[4] |= tagRoot
			c[5] = 0 // empty the first key
			return c
		}(),
	}
	for i, data := range cases {
		if v, err := Decode(data); err == nil {
			t.Errorf("case %d: corrupt input decoded to %s", i, v)
		}
	}
}

// FuzzDecode: Decode may reject arbitrary bytes but never panics, and every
// value it accepts round-trips: Decode(Encode(v)) is v. Bytes need not
// round-trip (an array's element keys are not read back). The checked-in
// corpus under testdata/fuzz holds hostile shapes: a forged document length,
// a truncated value, an unknown tag, a string length past the end, trailing
// bytes, and the root shapes: objects with one empty-key member, wrapped
// scalars and arrays, and malformed wrappers.
func FuzzDecode(f *testing.F) {
	for _, s := range lookupSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			return
		}
		back, err := Decode(Encode(nil, v))
		if err != nil {
			t.Fatalf("encoding of the value of %x does not decode: %v", data, err)
		}
		if !strictEqual(back, v) {
			t.Fatalf("%x decodes to %s, whose encoding decodes to %s", data, v, back)
		}
	})
}

func TestLookupCorrupt(t *testing.T) {
	if _, _, err := Lookup([]byte{5, 0, 0, 0, 1}, jsonval.ParsePath("/a")); err == nil {
		t.Errorf("corrupt lookup did not error")
	}
}

func TestKeyWithNulByteReplaced(t *testing.T) {
	v := jsonval.ObjectValue(jsonval.Member{Key: "a\x00b", Value: jsonval.IntValue(1)})
	back, err := Decode(Encode(nil, v))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Members()) != 1 || strings.IndexByte(back.Members()[0].Key, 0) >= 0 {
		t.Errorf("NUL in key survived: %q", back.Members()[0].Key)
	}
}

func TestRoundTripRandomDocs(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for i := 0; i < 300; i++ {
		v := randomDoc(r, 3)
		back, err := Decode(Encode(nil, v))
		if err != nil {
			t.Fatalf("doc %d: %v (%s)", i, err, v)
		}
		if !strictEqual(v, back) {
			t.Fatalf("doc %d: %s != %s", i, v, back)
		}
	}
}

func randomDoc(r *rand.Rand, depth int) jsonval.Value {
	n := r.Intn(5)
	members := make([]jsonval.Member, 0, n)
	for i := 0; i < n; i++ {
		key := string(rune('a'+i)) + strings.Repeat("x", r.Intn(3))
		members = append(members, jsonval.Member{Key: key, Value: randomVal(r, depth)})
	}
	return jsonval.ObjectValue(members...)
}

func randomVal(r *rand.Rand, depth int) jsonval.Value {
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
		return jsonval.IntValue(r.Int63() - r.Int63())
	case 3:
		return jsonval.FloatValue(r.NormFloat64() * 1e6)
	case 4:
		return jsonval.StringValue(strings.Repeat("s", r.Intn(20)))
	case 5:
		n := r.Intn(4)
		elems := make([]jsonval.Value, n)
		for i := range elems {
			elems[i] = randomVal(r, depth-1)
		}
		return jsonval.ArrayValue(elems...)
	default:
		return randomDoc(r, depth-1)
	}
}
