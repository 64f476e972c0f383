package analyze

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
			// Distinct-value count stays under jsonstats.DefaultMaxValues:
			// which strings survive an overflow depends on the shard split.
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
// error on both paths.
func TestReaderPropagatesSyntaxErrors(t *testing.T) {
	for _, stream := range []string{`{"a":1}{"broken`, `{"a":1}{"a":`, `{"a":1}{"b":[1,2`, `{"a":1}["x"`,
		`{"a":1}"abc`, `{"a":1}tr`, `{"a":1}{"s":"}`, `{"a":1}{"a":?}`} {
		for _, workers := range []int{1, 4} {
			_, err := Reader("d", strings.NewReader(stream), Options{Workers: workers})
			var se *jsonval.SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("%q, workers=%d: err = %v, want a syntax error", stream, workers, err)
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

func compareDatasets(t *testing.T, want, got *jsonstats.Dataset) {
	t.Helper()
	if want.DocCount != got.DocCount {
		t.Fatalf("DocCount %d != %d", got.DocCount, want.DocCount)
	}
	if len(want.Paths) != len(got.Paths) {
		t.Fatalf("paths %d != %d", len(got.Paths), len(want.Paths))
	}
	for p, wps := range want.Paths {
		gps := got.Paths[p]
		if gps == nil {
			t.Fatalf("missing path %s", p)
		}
		// Merge order may differ, but all exact aggregates must agree.
		// String caps can differ between shard splits only if overflow
		// occurred (the test data stays under the default caps), and
		// histograms are rebinned on merge, so only their totals are
		// exact.
		wc, gc := *wps, *gps
		wc.NumHist, gc.NumHist = nil, nil
		if !samePathStats(&wc, &gc) {
			t.Fatalf("path %s differs:\n got %+v str=%+v\nwant %+v str=%+v", p, gps, gps.Str, wps, wps.Str)
		}
		if (wps.NumHist == nil) != (gps.NumHist == nil) {
			t.Fatalf("path %s: histogram presence differs", p)
		}
		if wps.NumHist != nil && wps.NumHist.Total != gps.NumHist.Total {
			t.Fatalf("path %s: histogram totals %d != %d", p, gps.NumHist.Total, wps.NumHist.Total)
		}
	}
}

// samePathStats reports whether a and b hold the same statistics, comparing
// string tables by content (the same keys in key order with the same
// counts): a table's memory layout follows the order its keys arrived in.
func samePathStats(a, b *jsonstats.PathStats) bool {
	ac, bc := *a, *b
	if (a.Str == nil) != (b.Str == nil) {
		return false
	}
	if a.Str != nil {
		if !slices.Equal(tableOf(a.Str.Prefixes), tableOf(b.Str.Prefixes)) ||
			!slices.Equal(tableOf(a.Str.Values), tableOf(b.Str.Values)) {
			return false
		}
		as, bs := *a.Str, *b.Str
		as.Prefixes, as.Values, bs.Prefixes, bs.Values = jsonstats.Counted{}, jsonstats.Counted{}, jsonstats.Counted{}, jsonstats.Counted{}
		ac.Str, bc.Str = &as, &bs
	}
	return reflect.DeepEqual(&ac, &bc)
}

type keyCount struct {
	key string
	n   int64
}

func tableOf(c jsonstats.Counted) []keyCount {
	out := make([]keyCount, c.Len())
	for i := range out {
		out[i].key, out[i].n = c.At(i)
	}
	return out
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

// TestParallelAnalysisFileRepeats: the shard split is deterministic, so the
// merged summary must be too. In 1100 NoBench documents every sparse
// attribute holds eleven distinct strings, about three per shard, so a value
// table capped at eight fills part-way through folding the third shard in
// and the rest of that shard's strings are dropped. (At the default cap of
// 32 the same happens from 4400 documents on.)
func TestParallelAnalysisFileRepeats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nobench.json")
	if err := datasets.NewNoBench().WriteFile(path, 1100, 17); err != nil {
		t.Fatal(err)
	}
	var first []byte
	for run := 0; run < 20; run++ {
		d, err := File("NoBench", path, Options{Workers: 4, Stats: jsonstats.Config{MaxValues: 8}})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = buf.Bytes()
			if st := d.Paths["/sparse_000"].Str; !st.ValueOverflow || st.Values.Len() != 8 {
				t.Fatalf("/sparse_000 value table did not overflow: %d values", st.Values.Len())
			}
		} else if !bytes.Equal(first, buf.Bytes()) {
			t.Fatalf("run %d: analysis file differs from run 0", run)
		}
	}
}
