package jsonblite

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonval"
)

func doc(t testing.TB, s string) jsonval.Value {
	t.Helper()
	v, err := jsonval.Parse([]byte(s))
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return v
}

func mustEncode(t testing.TB, v jsonval.Value) []byte {
	t.Helper()
	data, err := Encode(nil, v)
	if err != nil {
		t.Fatalf("Encode(%s): %v", v, err)
	}
	return data
}

func TestRoundTripScalars(t *testing.T) {
	for _, s := range []string{`null`, `true`, `false`, `0`, `-7`, `2.5`, `""`, `"text"`, `[1,2,"x"]`} {
		v := doc(t, s)
		back, err := Decode(mustEncode(t, v))
		if err != nil {
			t.Fatalf("Decode(%s): %v", s, err)
		}
		if !back.Equal(v) || back.Kind() != v.Kind() {
			t.Errorf("round trip of %s gave %s (%v)", s, back, back.Kind())
		}
	}
}

func TestRoundTripObjectsSortKeys(t *testing.T) {
	v := doc(t, `{"zebra":1,"apple":2,"mango":{"y":1,"x":2}}`)
	back, err := Decode(mustEncode(t, v))
	if err != nil {
		t.Fatal(err)
	}
	// JSONB normalises member order to sorted keys (like PostgreSQL).
	keys := make([]string, 0, 3)
	for _, m := range back.Members() {
		keys = append(keys, m.Key)
	}
	if strings.Join(keys, ",") != "apple,mango,zebra" {
		t.Errorf("keys not sorted: %v", keys)
	}
	if !back.Equal(v) {
		t.Errorf("content changed: %s", back)
	}
}

func TestEncodeRejectsNullByteInString(t *testing.T) {
	v := jsonval.ObjectValue(jsonval.Member{Key: "body", Value: jsonval.StringValue("a\x00b")})
	if _, err := Encode(nil, v); !errors.Is(err, ErrNullByte) {
		t.Errorf("NUL string accepted: %v", err)
	}
	deep := jsonval.ObjectValue(jsonval.Member{Key: "o", Value: jsonval.ArrayValue(jsonval.StringValue("x\x00"))})
	if _, err := Encode(nil, deep); !errors.Is(err, ErrNullByte) {
		t.Errorf("nested NUL string accepted: %v", err)
	}
	key := jsonval.ObjectValue(jsonval.Member{Key: "k\x00", Value: jsonval.IntValue(1)})
	if _, err := Encode(nil, key); !errors.Is(err, ErrNullByte) {
		t.Errorf("NUL key accepted: %v", err)
	}
}

func TestLookupBinary(t *testing.T) {
	data := mustEncode(t, doc(t, `{"user":{"name":"alice","id":7},"active":true,"stats":{"a":1,"b":2,"c":3,"d":4,"e":5}}`))
	cases := []struct {
		path  string
		want  string
		found bool
	}{
		{"/user/name", `"alice"`, true},
		{"/user/id", "7", true},
		{"/active", "true", true},
		{"/stats/c", "3", true},
		{"/stats/e", "5", true},
		{"/stats/z", "", false},
		{"/missing", "", false},
		{"/user/name/deeper", "", false},
	}
	for _, c := range cases {
		v, ok, err := LookupBinary(data, jsonval.ParsePath(c.path))
		if err != nil {
			t.Errorf("LookupBinary(%s): %v", c.path, err)
			continue
		}
		if ok != c.found {
			t.Errorf("LookupBinary(%s) found=%v, want %v", c.path, ok, c.found)
			continue
		}
		if ok && v.String() != c.want {
			t.Errorf("LookupBinary(%s) = %s, want %s", c.path, v, c.want)
		}
	}
}

func TestLookupBinaryEmptyObject(t *testing.T) {
	data := mustEncode(t, doc(t, `{}`))
	if _, ok, err := LookupBinary(data, "/a"); ok || err != nil {
		t.Errorf("empty object lookup = %v, %v", ok, err)
	}
}

func TestLookupBinaryAgreesWithDecode(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for i := 0; i < 200; i++ {
		v := randomObj(r, 3)
		data := mustEncode(t, v)
		decoded, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []jsonval.Path{"/a", "/b/a", "/c/b/a", "/nope"} {
			want, wantOK := path.Lookup(decoded)
			got, gotOK, err := LookupBinary(data, path)
			if err != nil {
				t.Fatalf("LookupBinary(%s) on %s: %v", path, v, err)
			}
			if gotOK != wantOK || (gotOK && !got.Equal(want)) {
				t.Fatalf("LookupBinary(%s) = %s/%v, Decode says %s/%v (doc %s)", path, got, gotOK, want, wantOK, v)
			}
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	valid := mustEncode(t, doc(t, `{"a":1,"b":"xy"}`))
	cases := [][]byte{
		nil,
		{0x7F},
		valid[:len(valid)-1],
		append(append([]byte{}, valid...), 0x00), // trailing bytes
	}
	for i, data := range cases {
		if v, err := Decode(data); err == nil {
			t.Errorf("case %d: corrupt input decoded to %s", i, v)
		}
	}
}

// decodeSeeds are FuzzDecode's in-code seeds, as JSON text.
var decodeSeeds = []string{`{"user":{"screen_name":"a","n":[1,2.5,null]},"b":true}`, `{}`, `"s"`}

// FuzzDecode: Decode may reject arbitrary bytes but never panics, and every
// value it accepts round-trips — its encoding decodes to a value that
// encodes to the same bytes. The checked-in corpus under testdata/fuzz holds
// hostile shapes: a forged container count, a truncated string, a key range
// past the end, an unknown tag and trailing bytes.
func FuzzDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add(mustEncode(f, doc(f, s)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Decode(data)
		if err != nil {
			return
		}
		canon, err := Encode(nil, v)
		if err != nil {
			return // U+0000 in a string or key: Decode accepts it, Encode refuses it
		}
		back, err := Decode(canon)
		if err != nil {
			t.Fatalf("encoding of the value of %x does not decode: %v", data, err)
		}
		if again := mustEncode(t, back); !bytes.Equal(again, canon) {
			t.Fatalf("value of %x does not round-trip:\n%x\n%x", data, canon, again)
		}
	})
}

func TestFloatKindsPreserved(t *testing.T) {
	v := doc(t, `{"i":5,"f":5.0}`)
	back, err := Decode(mustEncode(t, v))
	if err != nil {
		t.Fatal(err)
	}
	i, _ := back.Field("i")
	f, _ := back.Field("f")
	if i.Kind() != jsonval.Int || f.Kind() != jsonval.Float {
		t.Errorf("kinds = %v, %v", i.Kind(), f.Kind())
	}
	big := jsonval.FloatValue(math.MaxFloat64)
	backBig, err := Decode(mustEncode(t, big))
	if err != nil || backBig.Float() != math.MaxFloat64 {
		t.Errorf("MaxFloat64 round trip = %s, %v", backBig, err)
	}
}

func randomObj(r *rand.Rand, depth int) jsonval.Value {
	keys := []string{"a", "b", "c", "dd", "ee"}
	n := 1 + r.Intn(4)
	members := make([]jsonval.Member, 0, n)
	used := map[string]bool{}
	for i := 0; i < n; i++ {
		k := keys[r.Intn(len(keys))]
		if used[k] {
			continue
		}
		used[k] = true
		var v jsonval.Value
		switch r.Intn(6) {
		case 0:
			v = jsonval.IntValue(int64(r.Intn(1000)))
		case 1:
			v = jsonval.FloatValue(r.Float64())
		case 2:
			v = jsonval.StringValue(strings.Repeat("v", r.Intn(8)))
		case 3:
			v = jsonval.BoolValue(r.Intn(2) == 0)
		case 4:
			v = jsonval.ArrayValue(jsonval.IntValue(1), jsonval.StringValue("e"))
		default:
			if depth > 0 {
				v = randomObj(r, depth-1)
			} else {
				v = jsonval.NullValue()
			}
		}
		members = append(members, jsonval.Member{Key: k, Value: v})
	}
	return jsonval.ObjectValue(members...)
}

// legacyEncode is Encode as it was before it sorted member positions in
// place: it copies an object's members and sorts the copy with
// sort.SliceStable. Encode must produce its bytes exactly.
func legacyEncode(dst []byte, v jsonval.Value) ([]byte, error) {
	switch v.Kind() {
	case jsonval.Null:
		return append(dst, tagNull), nil
	case jsonval.Bool:
		if v.Bool() {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case jsonval.Int:
		dst = append(dst, tagInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.Int())), nil
	case jsonval.Float:
		dst = append(dst, tagFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float())), nil
	case jsonval.String:
		s := v.Str()
		if strings.IndexByte(s, 0) >= 0 {
			return nil, ErrNullByte
		}
		dst = append(dst, tagString)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		return append(dst, s...), nil
	case jsonval.Array:
		elems := v.Array()
		dst = append(dst, tagArray)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(elems)))
		idxStart := len(dst)
		dst = append(dst, make([]byte, 4*len(elems))...)
		bodyStart := len(dst)
		var err error
		for i, e := range elems {
			binary.LittleEndian.PutUint32(dst[idxStart+4*i:], uint32(len(dst)-bodyStart))
			if dst, err = legacyEncode(dst, e); err != nil {
				return nil, err
			}
		}
		return dst, nil
	case jsonval.Object:
		members := append([]jsonval.Member(nil), v.Members()...)
		sort.SliceStable(members, func(i, j int) bool { return members[i].Key < members[j].Key })
		dst = append(dst, tagObject)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(members)))
		idxStart := len(dst)
		dst = append(dst, make([]byte, 12*len(members))...)
		keysStart := len(dst)
		for i, m := range members {
			if strings.IndexByte(m.Key, 0) >= 0 {
				return nil, ErrNullByte
			}
			binary.LittleEndian.PutUint32(dst[idxStart+12*i:], uint32(len(dst)-keysStart))
			binary.LittleEndian.PutUint32(dst[idxStart+12*i+4:], uint32(len(m.Key)))
			dst = append(dst, m.Key...)
		}
		valsStart := len(dst)
		var err error
		for i, m := range members {
			binary.LittleEndian.PutUint32(dst[idxStart+12*i+8:], uint32(len(dst)-valsStart))
			if dst, err = legacyEncode(dst, m.Value); err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return append(dst, tagNull), nil
	}
}

// wideObject draws an object of n members over few keys, so duplicates are
// many and their document order decides the bytes; values nest up to depth.
func wideObject(r *rand.Rand, n, depth int) jsonval.Value {
	keys := []string{"a", "b", "bb", "c", "", "é", "Z", "k9", "k10"}
	members := make([]jsonval.Member, n)
	for i := range members {
		// Values tell duplicates apart: a swapped pair changes the bytes.
		v := jsonval.IntValue(int64(i))
		if depth > 0 && r.Intn(4) == 0 {
			v = wideObject(r, r.Intn(40), depth-1)
		}
		members[i] = jsonval.Member{Key: keys[r.Intn(len(keys))], Value: v}
	}
	return jsonval.ObjectValue(members...)
}

// TestEncodeMatchesLegacyEncoder: Encode's bytes are those of legacyEncode
// on every document of the three generators at seed 7, on Reddit bodies with
// U+0000 (both refuse them), on objects with duplicate keys, on objects
// wider than Encode's 32-entry stack buffer, and on nested ones.
func TestEncodeMatchesLegacyEncoder(t *testing.T) {
	var docs []jsonval.Value
	for _, src := range []datasets.Source{datasets.NewTwitter(), datasets.NewNoBench(), datasets.NewReddit(datasets.RedditOptions{}),
		datasets.NewReddit(datasets.RedditOptions{NullByteFraction: 0.05})} {
		docs = append(docs, src.Generate(1000, 7)...)
	}
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 5, 31, 32, 33, 64, 200} {
		for i := 0; i < 20; i++ {
			docs = append(docs, wideObject(r, n, 2))
		}
	}
	for i := 0; i < 200; i++ {
		docs = append(docs, randomObj(r, 4))
	}
	refused := 0
	// Encode writes into a reused buffer whose spare capacity holds the
	// bytes of earlier documents: it must overwrite every byte it claims.
	var buf []byte
	for _, d := range docs {
		got, err := Encode(append(buf[:0], "prefix"...), d)
		want, wantErr := legacyEncode([]byte("prefix"), d)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Encode err = %v, legacy err = %v on %s", err, wantErr, d)
		}
		if err != nil {
			refused++
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode differs from the legacy encoder on %.200s:\n got %x\nwant %x", d, got, want)
		}
		buf = got
	}
	if refused == 0 {
		t.Errorf("no Reddit body with U+0000 among the generated documents")
	}
}

// TestEncodeAllocatesNothing: into a buffer that fits, an object no wider
// than 32 members encodes without allocating.
func TestEncodeAllocatesNothing(t *testing.T) {
	d := datasets.NewTwitter().Generate(1, 2)[0]
	buf := mustEncode(t, d)
	if n := testing.AllocsPerRun(50, func() { buf, _ = Encode(buf[:0], d) }); n != 0 {
		t.Errorf("Encode into a warm buffer: %v allocs per document, want 0", n)
	}
}
