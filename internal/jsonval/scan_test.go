package jsonval

import (
	"math/rand"
	"testing"
)

func TestScanValueBasics(t *testing.T) {
	cases := []struct {
		in    string
		atEOF bool
		want  int
	}{
		{`{"a":1}`, false, 7},
		{`  {"a":1}`, false, 9},
		{`[1,2,3]rest`, false, 7},
		{`"str"x`, false, 5},
		{`"with \" quote"`, false, 15},
		{`true,`, false, 4},
		{`false`, false, 5},
		{`null `, false, 4},
		{`123 `, false, 3},
		{`123`, false, 0}, // number may continue
		{`123`, true, 3},
		{`-1.5e3,`, false, 6},
		{`{"a":`, false, 0},     // incomplete object
		{`"unterm`, false, 0},   // incomplete string
		{`tr`, false, 0},        // incomplete literal
		{`{"s":"}"}`, false, 9}, // brace inside string
		{`["x"`, false, 0},
		{`"ab\"`, false, 0},
		{"\n{\"s\":\"}", false, 0},
	}
	for _, c := range cases {
		got, err := ScanValue([]byte(c.in), c.atEOF)
		if err != nil {
			t.Errorf("ScanValue(%q, %v) error: %v", c.in, c.atEOF, err)
			continue
		}
		if got != c.want {
			t.Errorf("ScanValue(%q, %v) = %d, want %d", c.in, c.atEOF, got, c.want)
		}
	}
}

// TestScanValueErrors: besides input that cannot start a value, at EOF any
// value that has not ended is an error at the offset where it starts, not
// the (0, nil) that means "no more values".
func TestScanValueErrors(t *testing.T) {
	bad := []struct {
		in     string
		atEOF  bool
		offset int
	}{
		{`?`, false, 0},
		{`}`, false, 0},
		{`trX`, false, 0},
		{`tr`, true, 0},
		{` nul`, true, 1},
		{`{broken`, true, 0},
		{`{"a":1`, true, 0},
		{`["x"`, true, 0},
		{`"abc`, true, 0},
		{`"ab\"`, true, 0},
		{`  [{"a":[1]}`, true, 2},
		{"\n{\"s\":\"}", true, 1},
	}
	for _, c := range bad {
		n, err := ScanValue([]byte(c.in), c.atEOF)
		se, ok := err.(*SyntaxError)
		if !ok {
			t.Errorf("ScanValue(%q, %v) = %d, %v; want a SyntaxError", c.in, c.atEOF, n, err)
		} else if se.Offset != c.offset {
			t.Errorf("ScanValue(%q, %v): error at offset %d, want %d", c.in, c.atEOF, se.Offset, c.offset)
		}
	}
}

func TestScanValueWhitespaceOnly(t *testing.T) {
	if n, err := ScanValue([]byte("  \n "), true); n != 0 || err != nil {
		t.Errorf("whitespace-only scan = %d, %v", n, err)
	}
}

func TestScanValueAgreesWithParsePrefix(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		v := randomValue(r, 3)
		data := AppendJSON(nil, v)
		data = append(data, " {\"next\":1}"...) // ensure non-EOF boundary
		n, err := ScanValue(data, false)
		if err != nil {
			t.Fatalf("scan of %q: %v", data, err)
		}
		_, pn, perr := ParsePrefix(data)
		if perr != nil {
			t.Fatalf("parse of %q: %v", data, perr)
		}
		if n != pn {
			t.Fatalf("scan length %d != parse length %d for %q", n, pn, data)
		}
	}
}
