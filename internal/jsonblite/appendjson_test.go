package jsonblite

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonval"
)

// checkTranscode asserts the AppendJSON contract on arbitrary bytes: it
// fails exactly when Decode fails, and otherwise appends what serialising
// the decoded tree appends. dst is non-empty so offsets and the float
// formatter's look-behind are exercised.
func checkTranscode(t testing.TB, data []byte) {
	t.Helper()
	dst := []byte("[1.5,")
	got, gotErr := AppendJSON(dst, data)
	v, wantErr := Decode(data)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("verdicts differ on %x: AppendJSON err=%v, Decode err=%v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		if !bytes.Equal(got, dst) {
			t.Fatalf("failed AppendJSON extended dst to %q", got)
		}
		return
	}
	if want := jsonval.AppendJSON(dst, v); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON(%x)\n got %s\nwant %s", data, got, want)
	}
}

// hostileValue draws values that stress the text form: non-finite and
// negative-zero floats, int64 extremes, control characters, invalid UTF-8,
// duplicate and empty keys, empty containers. Nothing holds U+0000, which
// Encode refuses.
func hostileValue(r *rand.Rand, depth int) jsonval.Value {
	strs := []string{"", "plain", "q\"uote\\", "\x01\x1f\x7f", "\n\r\t\b\f", "\xff\xfe bad \xc3", "é€😀", "  ", strings.Repeat("long", 40)}
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
		keys := []string{"", "k", "dup", "dup", "\xff", "sp ace", "q\"", "0", "é"}
		members := make([]jsonval.Member, r.Intn(5))
		for i := range members {
			members[i] = jsonval.Member{Key: keys[r.Intn(len(keys))], Value: hostileValue(r, depth-1)}
		}
		return jsonval.ObjectValue(members...)
	}
}

// generatorDocs returns the first n documents of each dataset family at
// seed, Reddit's U+0000 bodies left out.
func generatorDocs(n int, seed int64) []jsonval.Value {
	var docs []jsonval.Value
	for _, src := range []datasets.Source{datasets.NewTwitter(), datasets.NewNoBench(), datasets.NewReddit(datasets.RedditOptions{NullByteFraction: -1})} {
		docs = append(docs, src.Generate(n, seed)...)
	}
	return docs
}

func TestAppendJSONMatchesDecode(t *testing.T) {
	docs := generatorDocs(150, 7)
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 600; i++ {
		docs = append(docs, hostileValue(r, 4))
	}
	docs = append(docs, jsonval.ObjectValue(), jsonval.ArrayValue(), jsonval.NullValue(), jsonval.IntValue(-7),
		jsonval.FloatValue(math.NaN()), jsonval.StringValue("root"))
	for _, d := range docs {
		checkTranscode(t, mustEncode(t, d))
	}
}

// Every proper prefix and every single-bit flip of a valid document must
// either fail in both AppendJSON and Decode or transcode to the same text.
func TestAppendJSONCorruptVerdict(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	docs := []jsonval.Value{
		doc(t, `{"a":1,"s":"xy","f":2.5,"b":true,"n":null,"o":{"k":[1,"two",{"z":{}}]},"e":[]}`),
		doc(t, `[1,[2,[3]]]`),
		doc(t, `"bare"`),
		datasets.NewNoBench().Generate(1, 9)[0],
		hostileValue(r, 3),
	}
	for _, d := range docs {
		valid := mustEncode(t, d)
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
	data := mustEncode(t, datasets.NewTwitter().Generate(1, 2)[0])
	buf, err := AppendJSON(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { buf, _ = AppendJSON(buf[:0], data) }); n != 0 {
		t.Errorf("AppendJSON into a warm buffer: %v allocs per document, want 0", n)
	}
}

// decodeCorpus returns FuzzDecode's seeds: the in-code ones and the
// checked-in hostile shapes under testdata/fuzz/FuzzDecode.
func decodeCorpus(f *testing.F) [][]byte {
	var seeds [][]byte
	for _, s := range decodeSeeds {
		seeds = append(seeds, mustEncode(f, doc(f, s)))
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecode", "*"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no FuzzDecode corpus: %v", err)
	}
	for _, name := range files {
		text, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		// "go test fuzz v1", then one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(text)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// FuzzAppendJSON: verdict and byte parity with Decode on arbitrary bytes.
func FuzzAppendJSON(f *testing.F) {
	for _, s := range decodeCorpus(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkTranscode(t, data) })
}
