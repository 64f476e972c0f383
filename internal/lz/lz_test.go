package lz

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonblite"
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

// legacyCompress is Compress as it was before match tables were reused:
// a zeroed table per call. The output of Compress must not depend on what
// earlier calls left in a table.
func legacyCompress(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	var table [1 << 14]int32 // position+1 of the last occurrence per hash
	litStart := 0
	i := 0
	for i+minMatch <= len(src) {
		h := hash4(src[i:])
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand >= 0 && i-cand <= maxOffset && match4(src, cand, i) {
			length := minMatch
			for i+length < len(src) && length < 64 && src[cand+length] == src[i+length] {
				length++
			}
			dst = emitLiterals(dst, src[litStart:i])
			dst = emitCopy(dst, i-cand, length)
			i += length
			litStart = i
			continue
		}
		i++
	}
	return emitLiterals(dst, src[litStart:])
}

// twinInputs are generator JSONB rows, 64 KB blocks of them, and random,
// run and motif inputs of 0–128 KB, in an order that alternates sizes so a
// reused table carries entries from longer and shorter inputs alike.
func twinInputs() [][]byte {
	var inputs [][]byte
	var block []byte
	for _, src := range []datasets.Source{datasets.NewTwitter(), datasets.NewNoBench(), datasets.NewReddit(datasets.RedditOptions{NullByteFraction: -1})} {
		for _, d := range src.Generate(60, 5) {
			row, err := jsonblite.Encode(nil, d)
			if err != nil {
				panic(err)
			}
			inputs = append(inputs, row)
			if block = append(block, row...); len(block) >= 64<<10 {
				inputs = append(inputs, block[:64<<10])
				block = nil
			}
		}
	}
	r := rand.New(rand.NewSource(43))
	for k := 0; k < 60; k++ {
		src := make([]byte, r.Intn(128<<10+1))
		switch k % 3 {
		case 0:
			r.Read(src)
		case 1:
			for i := 0; i < len(src); {
				run := min(r.Intn(300)+1, len(src)-i)
				b := byte(r.Intn(4))
				for j := 0; j < run; j++ {
					src[i+j] = b
				}
				i += run
			}
		default:
			motif := []byte(`{"key":"value","n":123},`)
			for i := range src {
				src[i] = motif[i%len(motif)] ^ byte(r.Intn(64)/63)
			}
		}
		inputs = append(inputs, src)
	}
	r.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	return inputs
}

func TestCompressMatchesLegacy(t *testing.T) {
	inputs := twinInputs()
	// One table for the whole sequence, the way a pooled table is reused;
	// a second pass starts just below the base's overflow, which resets it.
	for _, tab := range []*matchTable{{}, {base: math.MaxUint32 - 100_000}} {
		for i, src := range inputs {
			if got, want := tab.compress([]byte("x"), src), legacyCompress([]byte("x"), src); !bytes.Equal(got, want) {
				t.Fatalf("input %d (%d bytes, table base %d): %d bytes compressed, legacy %d", i, len(src), tab.base, len(got), len(want))
			}
		}
	}
	for i, src := range inputs {
		if got, want := Compress(nil, src), legacyCompress(nil, src); !bytes.Equal(got, want) {
			t.Fatalf("Compress of input %d (%d bytes) differs from legacy", i, len(src))
		}
	}
}

// A warm Compress allocates nothing: the match table comes from the pool
// and the output fits dst.
func TestCompressAllocatesNothing(t *testing.T) {
	row, err := jsonblite.Encode(nil, datasets.NewTwitter().Generate(1, 2)[0])
	if err != nil {
		t.Fatal(err)
	}
	buf := Compress(nil, row)
	if n := testing.AllocsPerRun(50, func() { buf = Compress(buf[:0], row) }); n != 0 {
		t.Errorf("warm Compress: %v allocs per call, want 0", n)
	}
}
