package jsonval

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"
)

func TestValueLayout(t *testing.T) {
	if s := unsafe.Sizeof(Value{}); s != 24 {
		t.Errorf("Sizeof(Value{}) = %d, want 24", s)
	}
	if s := unsafe.Sizeof(Member{}); s != 40 {
		t.Errorf("Sizeof(Member{}) = %d, want 40", s)
	}
}

// sameOutcome fails unless two parses agree: equal trees (kind by kind,
// member order, serialised bytes) or syntax errors with equal Offset and Msg.
func sameOutcome(t testing.TB, what string, data []byte, got Value, gerr error, want Value, werr error) {
	t.Helper()
	if werr != nil || gerr != nil {
		var gs, ws *SyntaxError
		if !errors.As(gerr, &gs) || !errors.As(werr, &ws) || *gs != *ws {
			t.Fatalf("%s(%q): error %v, reference %v", what, data, gerr, werr)
		}
		return
	}
	if !strictEqual(got, want) || !bytes.Equal(AppendJSON(nil, got), AppendJSON(nil, want)) {
		t.Fatalf("%s(%q) = %s, reference %s", what, data, got, want)
	}
}

// chunkings are the read patterns the Decoder is checked under.
var chunkings = map[string]func(io.Reader) io.Reader{
	"whole":    func(r io.Reader) io.Reader { return r },
	"one-byte": iotest.OneByteReader,
	"half":     iotest.HalfReader,
	"data+err": iotest.DataErrReader,
	"7-byte":   func(r io.Reader) io.Reader { return &fragmentReader{data: mustReadAll(r), n: 7} },
}

func mustReadAll(r io.Reader) []byte {
	data, err := io.ReadAll(r)
	if err != nil {
		panic(err)
	}
	return data
}

// reusedParser lives across every checkAgainstReference call of the test
// binary, so it has seen failed parses, huge inputs and thousands of
// documents by the time the later ones run.
var reusedParser Parser

// checkAgainstReference holds Parse, a long-lived Parser, ParsePrefix, the
// Decoder under every chunking and ScanValue to what the pre-slab recursive
// parser does with the same bytes.
func checkAgainstReference(t testing.TB, data []byte) {
	t.Helper()
	want, werr := referenceParse(data)
	got, gerr := Parse(data)
	sameOutcome(t, "Parse", data, got, gerr, want, werr)
	got, gerr = reusedParser.Parse(data)
	sameOutcome(t, "Parser.Parse", data, got, gerr, want, werr)

	pwant, wn, pwerr := referenceParsePrefix(data)
	pgot, gn, pgerr := ParsePrefix(data)
	sameOutcome(t, "ParsePrefix", data, pgot, pgerr, pwant, pwerr)
	if gn != wn {
		t.Fatalf("ParsePrefix(%q) consumed %d bytes, reference %d", data, gn, wn)
	}

	if werr == nil {
		// A valid document: the boundary scanner finds its end, and it
		// survives serialisation.
		if n, err := ScanValue(data, true); err != nil || n != wn {
			t.Fatalf("ScanValue(%q) = %d, %v; ParsePrefix consumed %d", data, n, err, wn)
		}
		// (Serialising replaces invalid UTF-8, so compare text, not trees.)
		text := AppendJSON(nil, want)
		if back, err := Parse(text); err != nil || !bytes.Equal(AppendJSON(nil, back), text) {
			t.Fatalf("round trip of %q: %s, %v; want %s", data, back, err, text)
		}
	}

	// The Decoder sees data as a stream of documents; the reference for that
	// is referenceParsePrefix applied to what is left, over and over.
	for name, chunk := range chunkings {
		if (name == "one-byte" || name == "7-byte") && len(data) > 1<<9 {
			continue // the Decoder re-parses from the document's start on every refill
		}
		dec := NewDecoder(chunk(bytes.NewReader(data)))
		rest, base := data, 0
		for docs := 0; docs < 64; docs++ {
			for len(rest) > 0 && isSpace(rest[0]) {
				rest, base = rest[1:], base+1
			}
			got, gerr := dec.Decode()
			if len(rest) == 0 {
				if gerr != io.EOF {
					t.Fatalf("Decoder[%s](%q): %v after the last document, want io.EOF", name, data, gerr)
				}
				break
			}
			want, n, werr := referenceParsePrefix(rest)
			if se, ok := werr.(*SyntaxError); ok {
				se.Offset += base
			}
			sameOutcome(t, "Decoder["+name+"]", data, got, gerr, want, werr)
			if werr != nil {
				break
			}
			rest, base = rest[n:], base+n
		}
	}
}

// hostile is the table behind TestParserMatchesReference and FuzzParse's
// seed corpus: escapes, surrogates, number edge cases, depth limits,
// duplicate and awkward keys, and the malformed inputs of TestParseErrors.
func hostile() []string {
	deep := func(n int, open, close string) string {
		return strings.Repeat(open, n) + "1" + strings.Repeat(close, n)
	}
	return []string{
		`null`, `true`, `false`, ` [ ] `, `{}`, `""`, `0`, `-0`, `-0.0`, `0.0`, `1e0`, `1E+2`, `1.5e-3`, `12 `, "\t7\n",
		`9223372036854775807`, `-9223372036854775808`, `9223372036854775808`, `-9223372036854775809`,
		`123456789012345678`, `1234567890123456789`, `12345678901234567890`, `1e308`, `1e999`, `-1e999`, `1e-999`,
		`"\n\t\r\b\f\"\\\/"`, `"\u0041\u00e9\u20ac"`, `"\ud83d\ude00"`, `"\uD83D\uDE00"`, `"\ud800"`, `"\ud800x"`, `"\udc00\ud800"`,
		`"\ud83dA"`, `"\ud83d\ud83d\ude00"`, `"a\u0000b"`, `"é😀"`, "\"\xff\xfe\"", `"\u00\udE00"`,
		`{"a":1,"a":2,"a":{"a":[]}}`, `{"":1}`, `{"":{"":{}}}`, `{"a/b":1,"a":{"b":2}}`, `{"a":1,"a":2}`, `{"k\n":"v\t"}`,
		`{"` + strings.Repeat("k", 64) + `":1,"` + strings.Repeat("k", 65) + `":2}`,
		`[1,2.5,"x",null,true,{"a":[{"b":[[]]}]}]`, `{"user":{"name":"alice","tags":[1,2.5,"x",null,true]},"n":3}`,
		deep(MaxDepth, "[", "]"), deep(MaxDepth+1, "[", "]"), deep(MaxDepth+2, "[", "]"),
		deep(MaxDepth, `{"a":`, "}"), deep(MaxDepth+1, `{"a":`, "}"),
		`"` + strings.Repeat("long string ", 600) + `"`, `[` + strings.Repeat(`"s",`, 1500) + `"s"]`,
		``, `   `, `{`, `}`, `[`, `]`, `[1,`, `[1,]`, `{"a"}`, `{"a":}`, `{"a":1,}`, `{,}`, `{"a":1 "b":2}`, `[1 2]`, `{a:1}`, `{"a" 1}`,
		`tru`, `nul`, `falze`, `t`, `nulll`, `truefalse`, `01`, `-01`, `00`, `1.`, `.5`, `1e`, `1e+`, `-`, `--1`, `+5`, `1.e2`, `NaN`, `Infinity`,
		`"abc`, `"\q"`, `"\u00g0"`, `"\u12"`, `"\u`, `"\`, `"\ud83d\u12"`, `"\ud83d\`, "\"raw\nnewline\"", "\"\x01\"",
		`1 2`, `{} []`, `1-2`, `12abc`, `{"a":1}{"b":2}`, `{"a":1} {"a":} {"c":3}`, "{\"a\":1}\n[2]\n\"three\"\n4 5\n",
	}
}

func TestParserMatchesReference(t *testing.T) {
	for _, s := range hostile() {
		checkAgainstReference(t, []byte(s))
	}
}

// TestTruncatedAtEveryPrefix cuts valid documents at every byte: each prefix
// must fail (or, for a number, succeed) exactly as the reference does, and
// the boundary scanner must ask for more input rather than guess.
func TestTruncatedAtEveryPrefix(t *testing.T) {
	for _, s := range []string{
		`{"user":{"name":"al\u00e9\ud83d\ude00😀","tags":[1,-2.5e+3,"x",null,true,false]},"n":-30}`,
		`[{"a":"\\\""},{"":[]},12345678901234567890,1e2]`, `"plain"`, `true`, `null`, `-12.5e-7`,
	} {
		for i := 0; i < len(s); i++ {
			checkAgainstReference(t, []byte(s[:i]))
			if n, err := ScanValue([]byte(s[:i]), false); n != 0 || err != nil {
				t.Errorf("ScanValue(%q, more to come) = %d, %v; want 0, nil", s[:i], n, err)
			}
		}
	}
}

// FuzzParse: whatever the bytes, the slab parser, its wrappers and the
// Decoder agree with the reference parser, and nothing panics.
func FuzzParse(f *testing.F) {
	for _, s := range hostile() {
		if len(s) < 1<<10 {
			f.Add([]byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}

// TestParserReuseNeverOverwrites parses 10k documents — every seventh one
// malformed — with one Parser, keeps every tree, and compares them at the
// end against one-shot parses: later parses, failed ones included, must not
// have touched what earlier ones returned.
func TestParserReuseNeverOverwrites(t *testing.T) {
	var p Parser
	doc := func(i int) []byte {
		s := fmt.Sprintf(`{"id":%d,"name":"user_%d","esc":"tab\there %d","tags":["t%d",%d.5,null,{"deep":[%d]}],"k%d":true}`,
			i, i*31, i, i%13, i, i, i%2000)
		if i%7 == 3 {
			s = s[:len(s)-1-i%40] // cut somewhere inside
		}
		return []byte(s)
	}
	const n = 10_000
	kept := make([]Value, n)
	for i := range kept {
		v, err := p.Parse(doc(i))
		if (err != nil) != (i%7 == 3) {
			t.Fatalf("doc %d: err = %v", i, err)
		}
		kept[i] = v
	}
	for i, got := range kept {
		want, err := Parse(doc(i))
		if err != nil {
			want = Value{}
		}
		if !strictEqual(got, want) {
			t.Fatalf("doc %d was overwritten: %s, want %s", i, got, want)
		}
	}
}

// TestFailedParsesHandBackTheirSlabSpace: a document that arrives in many
// small reads fails to parse once per read. Those attempts must neither pile
// up in the slabs beside live documents nor cost a fresh chunk each (which
// is what restoring only the old chunk's tail did: 64 KiB per attempt).
func TestFailedParsesHandBackTheirSlabSpace(t *testing.T) {
	var p Parser
	doc := []byte(`{"text":"` + strings.Repeat("payload ", 40) + `","tags":["a","b","c"],"user":{"name":"alice"}}`)
	if _, err := p.Parse(doc); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const attempts = 2000
	for i := 0; i < attempts; i++ {
		if _, err := p.Parse(doc[:len(doc)-1-i%8]); err == nil {
			t.Fatal("truncated document parsed")
		}
	}
	runtime.ReadMemStats(&after)
	if perAttempt := (after.TotalAlloc - before.TotalAlloc) / attempts; perAttempt > 1<<10 {
		t.Errorf("%d bytes allocated per failed parse of a %d-byte document", perAttempt, len(doc))
	}
}

// TestRecycledParserKeepsEveryChunk: values parsed between two recycles
// may span several chunks of each slab, as a batch of documents does (here
// over 64 KiB of strings and 1024 members, the largest chunks). A
// recycle must keep them all, so that parsing the same batch again
// allocates nothing: keeping only the current chunk costs every other chunk
// anew on each round.
func TestRecycledParserKeepsEveryChunk(t *testing.T) {
	var docs [][]byte
	for i := 0; i < 64; i++ {
		docs = append(docs, []byte(fmt.Sprintf(`{"id":%d,"text":"%s","tags":["a","b%d","c","d"],"user":{"name":"u%d","langs":["en","de"],"f":1,"g":2,"h":3,"i":4,"j":5,"k":6,"l":7,"m":8,"n":9,"o":10,"p":11,"q":12,"r":13}}`,
			i, strings.Repeat("payload ", 200+i%7), i, i)))
	}
	var p Parser
	round := func() {
		p.Recycle()
		for _, doc := range docs {
			if _, err := p.Parse(doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	round()
	if chunks := len(p.strs.chunks); chunks < 2 {
		t.Fatalf("the batch filled %d string chunk(s); want several", chunks)
	}
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got != 0 {
		t.Errorf("10 recycled rounds of %d documents allocated %d bytes, want none", len(docs), got)
	}
}

// TestParserInternsKeys: from the second document on, equal member names
// are one string.
func TestParserInternsKeys(t *testing.T) {
	var p Parser
	var first []Member
	for i := 0; i < 3; i++ {
		v, err := p.Parse([]byte(`{"alpha":1,"beta":{"alpha":2}}`))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			first = v.Members()
		}
		if i == 2 {
			for j, m := range v.Members() {
				if unsafe.StringData(m.Key) != unsafe.StringData(first[j].Key) {
					t.Errorf("key %q not interned across documents", m.Key)
				}
			}
		}
	}
}

// TestOneShotParseIsFrugal: Parse on one small value — what query/codec.go,
// simtest and betze.ParseJSON do — must not pay for the reusable parser's
// chunks or intern table: no more allocations than the recursive parser it
// replaced, and no more bytes beyond the half KiB its scratch stacks cost (the
// price of carving composites exact-size).
func TestOneShotParseIsFrugal(t *testing.T) {
	small := []byte(`{"a":1,"b":"xyz","c":[true,null]}`)
	var big bytes.Buffer
	big.WriteString(`{"id":1,"user":{"name":"alice","verified":false,"langs":["en","de"]},"entities":[`)
	for i := 0; big.Len() < 2000; i++ {
		fmt.Fprintf(&big, `{"tag":"t%d","at":[%d,%d],"text":"the quick brown fox %d"},`, i, i, i+4, i)
	}
	big.WriteString(`{}],"lang":"en"}`)
	for _, data := range [][]byte{[]byte(`"abc"`), []byte(`42`), small, big.Bytes()} {
		measure := func(parse func([]byte) (Value, error)) (allocs float64, bytes uint64) {
			allocs = testing.AllocsPerRun(50, func() { parse(data) })
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 50; i++ {
				parse(data)
			}
			runtime.ReadMemStats(&after)
			return allocs, (after.TotalAlloc - before.TotalAlloc) / 50
		}
		gotAllocs, gotBytes := measure(Parse)
		refAllocs, refBytes := measure(referenceParse)
		t.Logf("%d-byte document: %.0f allocs / %d B, reference %.0f allocs / %d B", len(data), gotAllocs, gotBytes, refAllocs, refBytes)
		if gotAllocs > refAllocs || gotBytes > refBytes+512 {
			t.Errorf("one-shot Parse of a %d-byte document: %.0f allocs / %d B, the recursive parser needed %.0f / %d",
				len(data), gotAllocs, gotBytes, refAllocs, refBytes)
		}
	}
}

// countingReader counts what the Decoder has asked its source for.
type countingReader struct {
	r    io.Reader
	read int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.read += n
	return n, err
}

// TestDecoderReportsSyntaxErrorAtOnce: an error in the middle of a stream is
// not "maybe split across reads". Before the parser could say why it failed,
// Decode refilled on every error and read the remaining 13 MB (doubling its
// buffer to 16 MiB) before reporting this one.
func TestDecoderReportsSyntaxErrorAtOnce(t *testing.T) {
	head := "{\"a\":1}\n{\"a\":}\n"
	valid := strings.Repeat("{\"a\":1,\"pad\":\"xxxxxxxxxxxxxxxx\"}\n", 13_000_000/32)
	src := &countingReader{r: strings.NewReader(head + valid)}
	dec := NewDecoder(src)
	if _, err := dec.Decode(); err != nil {
		t.Fatal(err)
	}
	_, err := dec.Decode()
	var se *SyntaxError
	if !errors.As(err, &se) || se.Offset != 13 || se.Msg != `unexpected character '}'` {
		t.Fatalf("second document: %v, want the syntax error at offset 13", err)
	}
	if limit := 2 * cap(dec.buf); src.read > limit {
		t.Errorf("read %d bytes before reporting the error at offset 13; at most %d allowed", src.read, limit)
	}
}

// TestDecoderSplitAtEveryByte feeds a three-document stream in two reads,
// split at every position: whatever is cut — a literal, a \u escape, a
// surrogate pair, a number — the documents come out the same.
func TestDecoderSplitAtEveryByte(t *testing.T) {
	stream := `{"a":true,"s":"x\u00e9\ud83d\ude00éy","n":null}` + "\n" + `[-12.5e3,false,"\\"] 17` + "\n"
	var want []Value
	dec := NewDecoder(strings.NewReader(stream))
	for {
		v, err := dec.Decode()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, v)
	}
	if len(want) != 3 {
		t.Fatalf("%d documents, want 3", len(want))
	}
	for cut := 0; cut <= len(stream); cut++ {
		dec := NewDecoder(io.MultiReader(strings.NewReader(stream[:cut]), strings.NewReader(stream[cut:])))
		for i, w := range want {
			v, err := dec.Decode()
			if err != nil || !strictEqual(v, w) {
				t.Fatalf("cut at %d, document %d: %s, %v; want %s", cut, i, v, err, w)
			}
		}
		if _, err := dec.Decode(); err != io.EOF {
			t.Fatalf("cut at %d: %v after the last document, want io.EOF", cut, err)
		}
	}
}
