package jsonblite

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/jsonval"
)

// checkLookup asserts the lookup contract on arbitrary bytes: no panic, and
// on a canonical document (one Encode would have produced) the same answer
// as Path.Lookup on the decoded tree, through LookupBinary and through the
// in-place Raw accessors alike.
func checkLookup(t testing.TB, data []byte, path jsonval.Path) {
	t.Helper()
	got, ok, err := LookupBinary(data, path)
	raw, rawOK, _ := LookupSteps(data, path.Steps())
	if rawOK {
		raw.Number()
		raw.Bool()
		raw.HasPrefix(string(path))
		raw.Len()
	}
	tree, derr := Decode(data)
	if derr != nil {
		return
	}
	if canon, cerr := Encode(nil, tree); cerr != nil || !bytes.Equal(canon, data) {
		return
	}
	if err != nil {
		t.Fatalf("LookupBinary(%q) failed on a valid document: %v", path, err)
	}
	want, wantOK := path.Lookup(tree)
	// Encoded forms compare exactly, NaN payloads and member order included.
	gotBytes, _ := Encode(nil, got)
	wantBytes, _ := Encode(nil, want)
	if ok != wantOK || rawOK != wantOK || (ok && !bytes.Equal(gotBytes, wantBytes)) {
		t.Fatalf("LookupBinary(%q) = %s/%v (raw %v), the decoded tree has %s/%v", path, got, ok, rawOK, want, wantOK)
	}
	if !ok {
		return
	}
	if raw.Kind() != want.Kind() {
		t.Fatalf("Raw.Kind(%q) = %v, want %v", path, raw.Kind(), want.Kind())
	}
	if n, isSized := raw.Len(); isSized && n != want.Len() {
		t.Fatalf("Raw.Len(%q) = %d, want %d", path, n, want.Len())
	}
	if want.Kind() == jsonval.String && !(raw.EqualString(want.Str()) && raw.HasPrefix(want.Str()) && !raw.EqualString(want.Str()+"x")) {
		t.Fatalf("Raw string tests disagree with %q at %q", want.Str(), path)
	}
}

func TestLookupBinaryHostileInput(t *testing.T) {
	var corrupt *CorruptError
	for _, data := range [][]byte{nil, {tagObject}, {tagObject, 9, 0, 0}, {tagObject, 0xff, 0xff, 0xff, 0xff}} {
		if _, _, err := LookupBinary(data, "/a"); !errors.As(err, &corrupt) {
			t.Errorf("LookupBinary(%x) = %v, want a *CorruptError", data, err)
		}
	}
	// Every proper prefix and single-bit flip of a valid row: never a panic,
	// and whatever is still canonical still agrees with Decode.
	valid := mustEncode(t, doc(t, `{"user":{"name":"alice","id":7,"tags":[1,"x"]},"active":true,"s":"str","z":{}}`))
	paths := []jsonval.Path{"", "/user/name", "/user/tags", "/active", "/s", "/z", "/z/q", "/user/name/deeper"}
	for _, p := range paths {
		for n := 0; n < len(valid); n++ {
			checkLookup(t, valid[:n], p)
		}
		for bit := 0; bit < 8*len(valid); bit++ {
			flipped := append([]byte(nil), valid...)
			flipped[bit/8] ^= 1 << (bit % 8)
			checkLookup(t, flipped, p)
		}
	}
}

func TestLookupStepsFirstDuplicateWins(t *testing.T) {
	v := jsonval.ObjectValue(
		jsonval.Member{Key: "k", Value: jsonval.IntValue(1)},
		jsonval.Member{Key: "a", Value: jsonval.IntValue(0)},
		jsonval.Member{Key: "k", Value: jsonval.IntValue(2)},
		jsonval.Member{Key: "k", Value: jsonval.IntValue(3)},
	)
	checkLookup(t, mustEncode(t, v), "/k")
	if got, ok, err := LookupBinary(mustEncode(t, v), "/k"); err != nil || !ok || got.Int() != 1 {
		t.Errorf("LookupBinary(/k) = %s, %v, %v; want the first duplicate, 1", got, ok, err)
	}
}

func TestLookupStepsAllocatesNothing(t *testing.T) {
	data := mustEncode(t, doc(t, `{"id":1,"user":{"name":"alice","tags":[1,2,3],"geo":{"lat":1.5}}}`))
	for _, p := range []string{"/user/name", "/user/tags", "/user/geo/lat", "/user/nope", "/id/deeper"} {
		steps := jsonval.ParsePath(p).Steps()
		if n := testing.AllocsPerRun(50, func() {
			r, ok, _ := LookupSteps(data, steps)
			if ok {
				r.EqualString("alice")
				r.HasPrefix("al")
				r.Number()
				r.Len()
			}
		}); n != 0 {
			t.Errorf("LookupSteps(%s): %v allocs, want 0", p, n)
		}
	}
}

// FuzzLookupBinary runs checkLookup on arbitrary bytes and paths.
func FuzzLookupBinary(f *testing.F) {
	for _, s := range []string{`{"user":{"screen_name":"a","n":[1,2.5,null]},"b":true}`, `{}`, `7`, `{"":{"":1}}`} {
		v, err := jsonval.Parse([]byte(s))
		if err != nil {
			f.Fatal(err)
		}
		data, err := Encode(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, "/user/screen_name")
		f.Add(data, "/")
	}
	f.Add([]byte{tagObject}, "/a")
	f.Fuzz(func(t *testing.T, data []byte, p string) {
		if p != "" && !strings.HasPrefix(p, "/") {
			p = "/" + p
		}
		checkLookup(t, data, jsonval.Path(p))
	})
}
