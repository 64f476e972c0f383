package lz

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonval"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	compressed := Compress(nil, src)
	back, err := Decompress(nil, compressed)
	if err != nil {
		t.Fatalf("Decompress: %v (input %d bytes)", err, len(src))
	}
	if !bytes.Equal(back, src) {
		t.Fatalf("round trip changed data: %d bytes in, %d out", len(src), len(back))
	}
	return compressed
}

func TestRoundTripBasic(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abcd"),
		[]byte("hello hello hello hello"),
		[]byte(strings.Repeat("x", 10000)),
		[]byte(strings.Repeat("abcdefgh", 2000)),
		bytes.Repeat([]byte{0}, 500),
		[]byte(`{"user":{"name":"alice","verified":true},"text":"soccer soccer goal"}`),
	}
	for _, src := range cases {
		roundTrip(t, src)
	}
}

func TestCompressesRepetitiveData(t *testing.T) {
	src := []byte(strings.Repeat(`{"verified":false,"lang":"en"}`, 500))
	compressed := roundTrip(t, src)
	if len(compressed) > len(src)/4 {
		t.Errorf("repetitive data only shrank from %d to %d bytes", len(src), len(compressed))
	}
}

func TestIncompressibleDataSurvives(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	src := make([]byte, 100000)
	r.Read(src)
	compressed := roundTrip(t, src)
	// Random data may expand slightly but must stay close to the input.
	if len(compressed) > len(src)+len(src)/32+16 {
		t.Errorf("random data blew up from %d to %d bytes", len(src), len(compressed))
	}
}

func TestRoundTripRandomStructured(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		n := r.Intn(5000)
		src := make([]byte, n)
		// A mix of runs, random bytes and repeated motifs.
		pos := 0
		for pos < n {
			switch r.Intn(3) {
			case 0:
				run := min(r.Intn(100)+1, n-pos)
				b := byte(r.Intn(256))
				for k := 0; k < run; k++ {
					src[pos+k] = b
				}
				pos += run
			case 1:
				run := min(r.Intn(50)+1, n-pos)
				r.Read(src[pos : pos+run])
				pos += run
			default:
				motif := []byte("pattern-")[:min(8, n-pos)]
				copy(src[pos:], motif)
				pos += len(motif)
			}
		}
		roundTrip(t, src)
	}
}

func TestRoundTripTwitterDocs(t *testing.T) {
	docs := datasets.NewTwitter().Generate(200, 3)
	var raw []byte
	for _, d := range docs {
		raw = jsonval.AppendJSON(raw, d)
		raw = append(raw, '\n')
	}
	compressed := roundTrip(t, raw)
	if len(compressed) >= len(raw) {
		t.Errorf("JSON did not compress: %d -> %d", len(raw), len(compressed))
	}
	t.Logf("twitter JSON: %d -> %d bytes (%.1f%%)", len(raw), len(compressed), 100*float64(len(compressed))/float64(len(raw)))
}

func TestLongLiteralRuns(t *testing.T) {
	// Exercise every literal length encoding bracket.
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 59, 60, 61, 255, 256, 257, 65535, 65536, 65537, 100000} {
		src := make([]byte, n)
		r.Read(src) // random: no matches, pure literals
		roundTrip(t, src)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	valid := Compress(nil, []byte(strings.Repeat("data data data ", 100)))
	cases := [][]byte{
		nil,
		{},
		valid[:len(valid)/2],           // truncated
		append([]byte{}, valid[1:]...), // header gone
		{0x03},                         // reserved tag
		{5, 0x01},                      // truncated short copy
		{5, 0x02, 1},                   // truncated long copy
		{5, 0x0D, 0xFF},                // copy before stream start
		{200, byte(59<<2 | 0x00), 'x'}, // length mismatch
	}
	for i, src := range cases {
		if out, err := Decompress(nil, src); err == nil {
			t.Errorf("case %d: corrupt input decompressed to %d bytes", i, len(out))
		}
	}
}

// FuzzDecompress: the decoder may reject arbitrary bytes but never panics,
// and output it accepts stays within the expansion bound its length-header
// check enforces; every input also round-trips through Compress. The
// checked-in corpus under testdata/fuzz holds the hostile shapes: a forged
// length header, a truncated literal length, copy offset 0, an offset
// beyond the output and a reserved tag.
func FuzzDecompress(f *testing.F) {
	f.Add(Compress(nil, []byte("hello hello hello hello")))
	f.Fuzz(func(t *testing.T, src []byte) {
		if out, err := Decompress(nil, src); err == nil && len(out) > 32*len(src)+64 {
			t.Fatalf("accepted %d input bytes expanding to %d", len(src), len(out))
		}
		back, err := Decompress(nil, Compress(nil, src))
		if err != nil || !bytes.Equal(back, src) {
			t.Fatalf("round trip of %d bytes: err=%v, %d bytes back", len(src), err, len(back))
		}
	})
}

func TestDecompressAppendsToDst(t *testing.T) {
	prefix := []byte("prefix:")
	compressed := Compress(nil, []byte("payload"))
	out, err := Decompress(prefix, compressed)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "prefix:payload" {
		t.Errorf("got %q", out)
	}
}

func TestOverlappingCopies(t *testing.T) {
	// "aaaa..." forces overlapping back-references.
	src := []byte("a" + strings.Repeat("a", 300) + "end")
	roundTrip(t, src)
	src2 := []byte("abab" + strings.Repeat("ab", 200))
	roundTrip(t, src2)
}
