package engine

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

func TestReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.json")
	if err := os.WriteFile(path, []byte("{\"a\":1}\n{\"a\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var seen []int64
	docs, bytes, err := ReadFile(context.Background(), path, func(doc jsonval.Value) error {
		v, _ := doc.Field("a")
		seen = append(seen, v.Int())
		return nil
	})
	if err != nil || docs != 2 || bytes != 16 {
		t.Fatalf("ReadFile = %d docs, %d bytes, %v", docs, bytes, err)
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("callback saw %v", seen)
	}
	if _, _, err := ReadFile(context.Background(), filepath.Join(t.TempDir(), "nope"), nil); err == nil {
		t.Errorf("missing file accepted")
	}
}

func TestReadFileCancellation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*checkEvery; i++ {
		f.WriteString("{\"a\":1}\n")
	}
	f.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := ReadFile(ctx, path, func(jsonval.Value) error { return nil }); err == nil {
		t.Errorf("cancelled read completed")
	}
}

func TestWriteDoc(t *testing.T) {
	var buf []byte
	var sink bytes.Buffer
	n, err := WriteDoc(&sink, &buf, jsonval.ObjectValue(jsonval.Member{Key: "a", Value: jsonval.IntValue(1)}))
	if err != nil || n != 8 {
		t.Fatalf("WriteDoc = %d, %v", n, err)
	}
	if sink.String() != "{\"a\":1}\n" {
		t.Errorf("sink = %q", sink.String())
	}
}

func TestRunAggregation(t *testing.T) {
	agg := query.NewAggregator(query.Aggregation{Func: query.Sum, Path: "/n"})
	agg.Add(jsonval.ObjectValue(jsonval.Member{Key: "n", Value: jsonval.IntValue(2)}))
	agg.Add(jsonval.ObjectValue(jsonval.Member{Key: "n", Value: jsonval.IntValue(3)}))
	var sink bytes.Buffer
	stats := ExecStats{Matched: 2}
	if err := RunAggregation(agg, &sink, &stats); err != nil {
		t.Fatal(err)
	}
	if sink.String() != "{\"sum\":5}\n" {
		t.Errorf("sink = %q", sink.String())
	}
	if want := (ExecStats{Matched: 2, Returned: 1, OutputBytes: int64(sink.Len())}); stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}
}

func TestUnknownDatasetError(t *testing.T) {
	err := unknownDataset("x", "ghost")
	if err == nil || !bytes.Contains([]byte(err.Error()), []byte("ghost")) {
		t.Errorf("error = %v", err)
	}
}
