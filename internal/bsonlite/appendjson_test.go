package bsonlite

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonval"
)

// checkTranscode asserts the AppendJSON contract on arbitrary bytes: it
// fails exactly when Decode fails, and otherwise appends what serialising
// the decoded tree appends. dst is non-empty so offsets and the float
// formatter's look-behind are exercised.
func checkTranscode(t testing.TB, doc []byte) {
	t.Helper()
	dst := []byte("[1.5,")
	got, gotErr := AppendJSON(dst, doc)
	v, wantErr := Decode(doc)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("verdicts differ on %x: AppendJSON err=%v, Decode err=%v", doc, gotErr, wantErr)
	}
	if gotErr != nil {
		if !bytes.Equal(got, dst) {
			t.Fatalf("failed AppendJSON extended dst to %q", got)
		}
		return
	}
	if want := jsonval.AppendJSON(dst, v); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON(%x)\n got %s\nwant %s", doc, got, want)
	}
	// \u00XX is the widest escape: six output bytes for one input byte.
	if len(got) > len(dst)+6*len(doc)+8 {
		t.Fatalf("AppendJSON wrote %d bytes for a %d-byte document", len(got)-len(dst), len(doc))
	}
}

// hostileValue draws values that stress the text form: non-finite and
// negative-zero floats, int64 extremes, control characters, invalid UTF-8,
// keys with NUL, empty containers.
func hostileValue(r *rand.Rand, depth int) jsonval.Value {
	strs := []string{"", "plain", "q\"uote\\", "\x00\x01\x1f\x7f", "\n\r\t\b\f", "\xff\xfe bad \xc3", "é€😀", "  ", strings.Repeat("long", 40)}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -1.5, 1e21, 1e-7, 5e-324, math.MaxFloat64, 123456789.125}
	ints := []int64{0, -1, 1, math.MaxInt64, math.MinInt64, 1 << 53, -(1 << 53) - 1}
	max := 8
	if depth <= 0 {
		max = 6
	}
	switch r.Intn(max) {
	case 0:
		return jsonval.NullValue()
	case 1:
		return jsonval.BoolValue(r.Intn(2) == 0)
	case 2:
		return jsonval.IntValue(ints[r.Intn(len(ints))])
	case 3:
		return jsonval.FloatValue(floats[r.Intn(len(floats))])
	case 4, 5:
		return jsonval.StringValue(strs[r.Intn(len(strs))])
	case 6:
		elems := make([]jsonval.Value, r.Intn(4))
		for i := range elems {
			elems[i] = hostileValue(r, depth-1)
		}
		return jsonval.ArrayValue(elems...)
	default:
		keys := []string{"", "k", "a\x00b", "dup", "dup", "\xff", "sp ace", "q\"", "0"}
		members := make([]jsonval.Member, r.Intn(4))
		for i := range members {
			members[i] = jsonval.Member{Key: keys[r.Intn(len(keys))], Value: hostileValue(r, depth-1)}
		}
		return jsonval.ObjectValue(members...)
	}
}

func nested(depth int, leaf jsonval.Value) jsonval.Value {
	v := leaf
	for i := 0; i < depth; i++ {
		if i%2 == 0 {
			v = jsonval.ObjectValue(jsonval.Member{Key: "n", Value: v})
		} else {
			v = jsonval.ArrayValue(v, jsonval.IntValue(int64(i)))
		}
	}
	return v
}

func generatorDocs(n int) []jsonval.Value {
	var docs []jsonval.Value
	for _, src := range []datasets.Source{datasets.NewTwitter(), datasets.NewNoBench(), datasets.NewReddit(datasets.RedditOptions{})} {
		docs = append(docs, src.Generate(n, 5)...)
	}
	return docs
}

func TestAppendJSONMatchesDecode(t *testing.T) {
	docs := generatorDocs(150)
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 600; i++ {
		docs = append(docs, hostileValue(r, 4))
	}
	docs = append(docs,
		jsonval.ObjectValue(), jsonval.ArrayValue(), jsonval.NullValue(), jsonval.IntValue(-7),
		jsonval.FloatValue(math.NaN()), jsonval.StringValue("root"),
		nested(32, jsonval.StringValue("deep")), nested(31, jsonval.ObjectValue()),
		// Objects with empty keys, which encode as they read.
		jsonval.ObjectValue(jsonval.Member{Key: "", Value: jsonval.IntValue(1)}),
		jsonval.ObjectValue(jsonval.Member{Key: "", Value: jsonval.ObjectValue(jsonval.Member{Key: "a", Value: jsonval.IntValue(1)})}),
		jsonval.ObjectValue(jsonval.Member{Key: "", Value: jsonval.IntValue(1)}, jsonval.Member{Key: "b", Value: jsonval.IntValue(2)}),
		jsonval.ObjectValue(jsonval.Member{Key: "a", Value: jsonval.ObjectValue(jsonval.Member{Key: "", Value: jsonval.IntValue(1)})}),
	)
	for _, d := range docs {
		checkTranscode(t, Encode(nil, d))
	}
}

// Every proper prefix and every single-bit flip of a valid document must
// either fail in both AppendJSON and Decode or transcode to the same text.
func TestAppendJSONCorruptVerdict(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	docs := []jsonval.Value{
		doc(t, `{"a":1,"s":"xy","f":2.5,"b":true,"n":null,"o":{"k":[1,"two",{"z":{}}]},"e":[]}`),
		doc(t, `[1,[2,[3]]]`),
		doc(t, `"wrapped"`),
		datasets.NewNoBench().Generate(1, 9)[0],
		hostileValue(r, 3),
	}
	for _, d := range docs {
		valid := Encode(nil, d)
		for n := 0; n < len(valid); n++ {
			checkTranscode(t, valid[:n])
		}
		for bit := 0; bit < 8*len(valid); bit++ {
			flipped := append([]byte(nil), valid...)
			flipped[bit/8] ^= 1 << (bit % 8)
			checkTranscode(t, flipped)
		}
	}
}

func TestAppendJSONAllocatesNothing(t *testing.T) {
	encoded := Encode(nil, datasets.NewTwitter().Generate(1, 2)[0])
	buf, err := AppendJSON(nil, encoded)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { buf, _ = AppendJSON(buf[:0], encoded) }); n != 0 {
		t.Errorf("AppendJSON into a warm buffer: %v allocs per document, want 0", n)
	}
}

func TestLookupStepsAllocatesNothing(t *testing.T) {
	encoded := Encode(nil, doc(t, `{"id":1,"user":{"name":"alice","tags":[1,2,3],"geo":{"lat":1.5}}}`))
	for _, p := range []string{"/user/name", "/user/tags", "/user/geo", "/user/nope", "/id/deeper"} {
		steps := jsonval.ParsePath(p).Steps()
		if n := testing.AllocsPerRun(50, func() {
			r, _, _ := LookupSteps(encoded, steps)
			r.EqualString("alice")
			r.HasPrefix("al")
			r.Len()
		}); n != 0 {
			t.Errorf("LookupSteps(%s): %v allocs, want 0", p, n)
		}
	}
}

// lookupSeeds is the in-code seed corpus shared by the fuzz targets; the
// checked-in files under testdata/fuzz add hostile shapes on top. Seeds stay
// small so the fuzzer's minimiser does not stall on them.
func lookupSeeds() [][]byte {
	seeds := [][]byte{nil, {5, 0, 0, 0, 0}, {5, 0, 0, 0, 1}}
	for _, d := range []jsonval.Value{
		datasets.NewNoBench().Generate(1, 5)[0],
		jsonval.IntValue(7),
		jsonval.ObjectValue(jsonval.Member{Key: "user", Value: jsonval.ObjectValue(
			jsonval.Member{Key: "screen_name", Value: jsonval.StringValue("a\"b")},
			jsonval.Member{Key: "tags", Value: jsonval.ArrayValue(jsonval.FloatValue(1.5), jsonval.NullValue(), jsonval.BoolValue(true))})}),
	} {
		seeds = append(seeds, Encode(nil, d))
	}
	return seeds
}

// FuzzLookup: Lookup and the Raw accessors never panic on arbitrary bytes,
// and on a document Decode accepts they agree with Path.Lookup on the tree.
func FuzzLookup(f *testing.F) {
	for _, s := range lookupSeeds() {
		f.Add(s, "/user/screen_name")
		f.Add(s, "/nested_obj/str")
	}
	f.Fuzz(func(t *testing.T, data []byte, p string) {
		path := jsonval.Path(p)
		if p != "" && !strings.HasPrefix(p, "/") {
			path = jsonval.Path("/" + p)
		}
		raw, ok, err := Lookup(data, path)
		var got jsonval.Value
		if ok {
			raw.Number()
			raw.Bool()
			raw.EqualString(p)
			raw.HasPrefix(p)
			raw.Len()
			got, err = raw.Value()
		}
		tree, derr := Decode(data)
		if derr != nil {
			return
		}
		if err != nil {
			t.Fatalf("Lookup(%q) failed on a valid document: %v", path, err)
		}
		want, wantOK := path.Lookup(tree)
		if ok != wantOK || (ok && !strictEqual(got, want)) {
			t.Fatalf("Lookup(%q) = %s/%v, the decoded tree has %s/%v", path, got, ok, want, wantOK)
		}
	})
}

// FuzzAppendJSON: verdict and byte parity with Decode on arbitrary bytes.
func FuzzAppendJSON(f *testing.F) {
	for _, s := range lookupSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkTranscode(t, data) })
}
