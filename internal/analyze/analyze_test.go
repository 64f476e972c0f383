package analyze

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/jsonval"
)

func genDocs(t *testing.T, n int, seed int64) ([]jsonval.Value, []byte) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	docs := make([]jsonval.Value, n)
	var raw []byte
	for i := range docs {
		members := []jsonval.Member{
			{Key: "id", Value: jsonval.IntValue(int64(i))},
			{Key: "score", Value: jsonval.FloatValue(r.Float64() * 100)},
			{Key: "name", Value: jsonval.StringValue(fmt.Sprintf("user_%03d", r.Intn(30)))},
		}
		if r.Intn(3) == 0 {
			members = append(members, jsonval.Member{Key: "meta", Value: jsonval.ObjectValue(
				jsonval.Member{Key: "verified", Value: jsonval.BoolValue(r.Intn(2) == 0)},
				jsonval.Member{Key: "tags", Value: jsonval.ArrayValue(jsonval.StringValue("a"), jsonval.StringValue("b"))},
			)})
		}
		docs[i] = jsonval.ObjectValue(members...)
		raw = jsonval.AppendJSON(raw, docs[i])
		raw = append(raw, '\n')
	}
	return docs, raw
}

func TestValuesSequentialVsParallel(t *testing.T) {
	docs, _ := genDocs(t, 500, 1)
	seq := Values("d", docs, Options{Workers: 1})
	par := Values("d", docs, Options{Workers: 8})
	if err := seq.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := par.Validate(); err != nil {
		t.Fatal(err)
	}
	compareDatasets(t, seq, par)
}

func TestReaderSequentialVsParallel(t *testing.T) {
	docs, raw := genDocs(t, 500, 2)
	fromValues := Values("d", docs, Options{Workers: 1})
	seq, err := Reader("d", bytes.NewReader(raw), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Reader("d", bytes.NewReader(raw), Options{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	compareDatasets(t, fromValues, seq)
	compareDatasets(t, fromValues, par)
}

func TestReaderHandlesConcatenatedDocs(t *testing.T) {
	// No newlines between documents at all.
	raw := []byte(`{"a":1}{"a":2}{"b":"x"}`)
	for _, workers := range []int{1, 4} {
		d, err := Reader("d", bytes.NewReader(raw), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d.DocCount != 3 {
			t.Errorf("workers=%d: DocCount = %d", workers, d.DocCount)
		}
		if d.Paths[jsonval.Path("/a")].Count != 2 {
			t.Errorf("workers=%d: /a count = %d", workers, d.Paths[jsonval.Path("/a")].Count)
		}
	}
}

// TestReaderPropagatesSyntaxErrors: a malformed document, and a stream that
// ends inside its last document whatever kind of value was cut, is a syntax
// error on both paths, and the same one.
func TestReaderPropagatesSyntaxErrors(t *testing.T) {
	for _, stream := range []string{`{"a":1}{"broken`, `{"a":1}{"a":`, `{"a":1}{"b":[1,2`, `{"a":1}["x"`,
		`{"a":1}"abc`, `{"a":1}tr`, `{"a":1}{"s":"}`, `{"a":1}{"a":?}`, `{"a":1} x`} {
		var first error
		for _, workers := range []int{1, 4} {
			_, err := Reader("d", strings.NewReader(stream), Options{Workers: workers})
			var se *jsonval.SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("%q, workers=%d: err = %v, want a syntax error", stream, workers, err)
			} else if first == nil {
				first = err
			} else if err.Error() != first.Error() {
				t.Errorf("%q, workers=%d: err = %v, one worker reports %v", stream, workers, err, first)
			}
		}
	}
}

// TestReaderCutsNumbersLikeTheParser: a top-level number ends where the
// parser ends it, not at the end of its run of number characters, so every
// worker count reads the same documents, or reports the same error.
func TestReaderCutsNumbersLikeTheParser(t *testing.T) {
	for _, tc := range []struct {
		stream string
		docs   int64  // when err is empty
		err    string // the error every worker count reports
	}{
		{stream: `12-3`, docs: 2},
		{stream: `-1-2`, docs: 2},
		{stream: `1.5e3-2`, docs: 2},
		{stream: `{"a":1}12-3`, docs: 3},
		{stream: `1e5e5`, err: `analyze: jsonval: syntax error at offset 3: unexpected character 'e'`},
	} {
		for _, workers := range []int{1, 2, 3} {
			d, err := Reader("d", strings.NewReader(tc.stream), Options{Workers: workers})
			switch {
			case tc.err != "":
				if err == nil || err.Error() != tc.err {
					t.Errorf("%q, workers=%d: err = %v, want %s", tc.stream, workers, err, tc.err)
				}
			case err != nil:
				t.Errorf("%q, workers=%d: %v", tc.stream, workers, err)
			case d.DocCount != tc.docs:
				t.Errorf("%q, workers=%d: %d documents, want %d", tc.stream, workers, d.DocCount, tc.docs)
			}
		}
	}
}

func TestReaderEmptyStream(t *testing.T) {
	for _, workers := range []int{1, 4} {
		d, err := Reader("d", strings.NewReader(""), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d.DocCount != 0 {
			t.Errorf("workers=%d: DocCount = %d", workers, d.DocCount)
		}
	}
}

func TestFile(t *testing.T) {
	_, raw := genDocs(t, 100, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "data.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := File("mydata", path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "mydata" || d.DocCount != 100 {
		t.Errorf("name=%q count=%d", d.Name, d.DocCount)
	}
	if _, err := File("x", filepath.Join(dir, "missing.json"), Options{}); err == nil {
		t.Errorf("missing file accepted")
	}
}

func TestFileDefaultsName(t *testing.T) {
	_, raw := genDocs(t, 5, 4)
	path := filepath.Join(t.TempDir(), "twitter.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := File("", path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(d.Name, "twitter.json") {
		t.Errorf("default name = %q", d.Name)
	}
}

func TestStatsConfigPropagates(t *testing.T) {
	docs, _ := genDocs(t, 50, 5)
	cfg := jsonstats.Config{PrefixLen: 2, MaxPrefixes: 4, MaxValues: 3}
	d := Values("d", docs, Options{Stats: cfg, Workers: 4})
	want := cfg
	want.HistogramBuckets = jsonstats.DefaultHistogramBuckets // zero value defaults
	if d.Config() != want {
		t.Errorf("config = %+v, want %+v", d.Config(), want)
	}
	st := d.Paths[jsonval.Path("/name")].Str
	if st == nil || st.Prefixes.Len() > 4 || st.Values.Len() > 3 {
		t.Errorf("caps not applied: %+v", st)
	}
	for i := 0; i < st.Prefixes.Len(); i++ {
		if pre, _ := st.Prefixes.At(i); len(pre) > 2 {
			t.Errorf("prefix %q longer than configured", pre)
		}
	}
}

// compareDatasets requires want and got to encode to the same bytes.
func compareDatasets(t *testing.T, want, got *jsonstats.Dataset) {
	t.Helper()
	if w, g := encode(t, want), encode(t, got); !bytes.Equal(w, g) {
		t.Fatalf("summaries differ (%d vs %d bytes)", len(g), len(w))
	}
}

func encode(t *testing.T, d *jsonstats.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSampling(t *testing.T) {
	docs, raw := genDocs(t, 2000, 9)
	full := Values("d", docs, Options{Workers: 1})
	for _, workers := range []int{1, 4} {
		sampled, err := Reader("d", bytes.NewReader(raw), Options{Workers: workers, SampleEvery: 4})
		if err != nil {
			t.Fatal(err)
		}
		if sampled.DocCount != 500 {
			t.Fatalf("workers=%d: sampled DocCount = %d, want 500", workers, sampled.DocCount)
		}
		// Ratios (what selectivity targeting uses) must approximate the
		// full analysis.
		for _, p := range []string{"/id", "/score", "/name", "/meta"} {
			fp, sp := full.Paths[jsonval.Path(p)], sampled.Paths[jsonval.Path(p)]
			if fp == nil {
				continue
			}
			if sp == nil {
				t.Fatalf("workers=%d: sampling lost path %s", workers, p)
			}
			fullRatio := float64(fp.Count) / float64(full.DocCount)
			sampleRatio := float64(sp.Count) / float64(sampled.DocCount)
			if diff := fullRatio - sampleRatio; diff < -0.08 || diff > 0.08 {
				t.Errorf("workers=%d: path %s ratio %f vs sampled %f", workers, p, fullRatio, sampleRatio)
			}
		}
	}
	// Values path too.
	sv := Values("d", docs, Options{Workers: 3, SampleEvery: 10})
	if sv.DocCount != 200 {
		t.Errorf("sampled Values DocCount = %d, want 200", sv.DocCount)
	}
	// A sampled summary still feeds the generator.
	if err := sv.Validate(); err != nil {
		t.Errorf("sampled summary invalid: %v", err)
	}
}

// TestParallelAnalysisFileRepeats: in 1100 NoBench documents every sparse
// attribute holds eleven distinct strings, so a value table capped at eight
// overflows, and which strings it keeps depends on the order documents are
// folded in. Run after run, four workers must write the analysis file of one.
func TestParallelAnalysisFileRepeats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nobench.json")
	if err := datasets.NewNoBench().WriteFile(path, 1100, 17); err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 1, Stats: jsonstats.Config{MaxValues: 8}}
	serial, err := File("NoBench", path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := serial.Paths["/sparse_000"].Str; !st.ValueOverflow || st.Values.Len() != 8 {
		t.Fatalf("/sparse_000 value table did not overflow: %d values", st.Values.Len())
	}
	want := encode(t, serial)
	opts.Workers = 4
	for run := 0; run < 20; run++ {
		d, err := File("NoBench", path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, d), want) {
			t.Fatalf("run %d: analysis file differs from one worker's", run)
		}
	}
}

// TestSummaryIndependentOfWorkers: the summary depends on the data alone.
// For every dataset family, with and without sampling, Reader at any worker
// count and Values at any worker count encode to the bytes of Reader with one
// worker.
func TestSummaryIndependentOfWorkers(t *testing.T) {
	sources := []datasets.Source{
		datasets.NewTwitter(),
		datasets.NewNoBench(),
		datasets.NewReddit(datasets.RedditOptions{}),
	}
	for _, src := range sources {
		for _, n := range []int{150, 3000} {
			var raw bytes.Buffer
			if err := src.WriteTo(&raw, n, 5); err != nil {
				t.Fatal(err)
			}
			var docs []jsonval.Value
			dec := jsonval.NewDecoder(bytes.NewReader(raw.Bytes()))
			for {
				v, err := dec.Decode()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				docs = append(docs, v)
			}
			for _, every := range []int{1, 3} {
				reader := func(workers int) []byte {
					d, err := Reader(src.Name, bytes.NewReader(raw.Bytes()), Options{Workers: workers, SampleEvery: every})
					if err != nil {
						t.Fatal(err)
					}
					return encode(t, d)
				}
				want := reader(1)
				for _, workers := range []int{2, 3, 8} {
					if !bytes.Equal(reader(workers), want) {
						t.Errorf("%s, %d docs, every %d: Reader with %d workers differs from one worker", src.Name, n, every, workers)
					}
				}
				for _, workers := range []int{1, 4} {
					if got := encode(t, Values(src.Name, docs, Options{Workers: workers, SampleEvery: every})); !bytes.Equal(got, want) {
						t.Errorf("%s, %d docs, every %d: Values with %d workers differs from Reader", src.Name, n, every, workers)
					}
				}
			}
		}
	}
}

// TestReaderReportsFirstBrokenDocument: with several malformed documents in
// different batches (40 KB of documents make three), every worker count
// reports the first in stream order, at its offset in the stream, as one
// worker does.
func TestReaderReportsFirstBrokenDocument(t *testing.T) {
	var raw strings.Builder
	for i := 0; i < 401; i++ {
		switch i {
		case 200:
			raw.WriteString(`{"a":1,"b":tru}`)
		case 330:
			raw.WriteString(`{"a":?}`)
		default:
			fmt.Fprintf(&raw, `{"a":%d,"b":"x%d","pad":"%s"}`, i, i%9, strings.Repeat("p", 80))
		}
		raw.WriteByte('\n')
	}
	want := fmt.Sprintf("analyze: jsonval: syntax error at offset %d: invalid literal, expected \"true\"", strings.Index(raw.String(), "tru}"))
	for _, workers := range []int{1, 2, 3, 8} {
		_, err := Reader("d", strings.NewReader(raw.String()), Options{Workers: workers})
		if err == nil || err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %s", workers, err, want)
		}
	}
}
