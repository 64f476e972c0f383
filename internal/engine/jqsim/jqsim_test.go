package jqsim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/query"
)

// TestOutputIsMarshalPlusNewline pins the bytes jq prints. Execute streams
// every matched document through one json.Encoder into a reused buffer; what
// reaches the sink, the OutputBytes it reports and the file a store writes
// must still be json.Marshal of the boxed document plus a newline — HTML
// escaping, float formatting and key order included.
func TestOutputIsMarshalPlusNewline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "twitter.json")
	if err := datasets.NewTwitter().WriteFile(path, 200, 5); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []byte
	filter := query.Exists{Path: "/user/name"}
	for dec := json.NewDecoder(bufio.NewReader(f)); ; {
		var doc any
		if err := dec.Decode(&doc); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if !evalAny(doc, filter) {
			continue
		}
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, out...), '\n')
	}
	if len(want) == 0 || bytes.Count(want, []byte("\n")) == 200 {
		t.Fatalf("the filter selects %d of 200 documents; want a proper subset", bytes.Count(want, []byte("\n")))
	}

	e, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.ImportFile(context.Background(), "Twitter", path); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	stats, err := e.Execute(context.Background(), &query.Query{Base: "Twitter", Filter: filter, Store: "named"}, &got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("printed %d bytes, json.Marshal plus newline gives %d", got.Len(), len(want))
	}
	if stats.OutputBytes != int64(len(want)) || stats.Returned != int64(bytes.Count(want, []byte("\n"))) {
		t.Errorf("stats %+v for %d bytes in %d documents", stats, len(want), bytes.Count(want, []byte("\n")))
	}
	if stored, err := os.ReadFile(filepath.Join(dir, "named.json")); err != nil || !bytes.Equal(stored, want) {
		t.Errorf("store file: %d bytes, %v; want the %d printed", len(stored), err, len(want))
	}

	// An aggregation pipes the same bytes into the second jq instance.
	agg := &query.Query{Base: "Twitter", Filter: filter, Agg: &query.Aggregation{Func: query.Count, Path: "/user/name", Grouped: true, GroupBy: "/lang"}}
	var fromBase, fromStored bytes.Buffer
	if _, err := e.Execute(context.Background(), agg, &fromBase); err != nil {
		t.Fatal(err)
	}
	agg.Base, agg.Filter = "named", nil
	if _, err := e.Execute(context.Background(), agg, &fromStored); err != nil {
		t.Fatal(err)
	}
	if fromBase.Len() == 0 || !bytes.Equal(fromBase.Bytes(), fromStored.Bytes()) {
		t.Errorf("aggregating the filtered stream gives %q, aggregating the stored copy %q", fromBase.Bytes(), fromStored.Bytes())
	}
}
