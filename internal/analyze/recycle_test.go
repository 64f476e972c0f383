package analyze

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/jsonval"
)

// slabDoc is the i-th document of a stream whose member names land in the
// parser's string slab instead of its intern table: names longer than 64
// bytes, and more than 4096 distinct names, which fill the table. Its string
// values repeat across documents, and every string table stays under the
// default caps, so no shard split can change which keys survive. There are
// no numbers: merged histograms are rebinned.
func slabDoc(i int) string {
	long := strings.Repeat("l", 70)
	return fmt.Sprintf(`{"k%05d":"v%d","%s_%02d":{"%s_in":"w%d","esc":"tab\tw%d"},"s":"repeat-%02d","b":%t}`,
		i, i%7, long, i%30, long, i%5, i%3, i%20, i%2 == 0)
}

// TestAnalysisKeepsNothingOfRecycledDocuments: Reader recycles its parsers'
// memory before every document, so a summary that kept a member name or a
// string value without copying it would read whatever the next document put
// there. The summary of the recycled stream must equal, byte for byte, the
// one Values builds from independently parsed documents.
func TestAnalysisKeepsNothingOfRecycledDocuments(t *testing.T) {
	const n = 6000
	var raw bytes.Buffer
	docs := make([]jsonval.Value, n)
	for i := range docs {
		s := slabDoc(i)
		v, err := jsonval.Parse([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = v
		raw.WriteString(s)
		raw.WriteByte('\n')
	}
	var want bytes.Buffer
	if _, err := Values("slab", docs, Options{Workers: 1}).WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		ds, err := Reader("slab", bytes.NewReader(raw.Bytes()), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if _, err := ds.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d worker(s): summary of the recycled stream differs from independently parsed documents (%d vs %d bytes)",
				workers, got.Len(), want.Len())
		}
	}
}

// TestSteadyStateAnalysisAllocatesNothing: once a recycled parser's chunks
// fit a document and the summary has seen it (past the histograms' buffered
// sample of 256 values, which fixes their buckets), parsing and folding the
// document in again allocates nothing. Bytes are measured, not allocation
// counts: testing.AllocsPerRun's integer division would hide one new chunk
// every few dozen documents.
func TestSteadyStateAnalysisAllocatesNothing(t *testing.T) {
	var raw bytes.Buffer
	if err := datasets.NewNoBench().WriteTo(&raw, 1, 7); err != nil {
		t.Fatal(err)
	}
	doc := raw.Bytes()
	var p jsonval.Parser
	ds := jsonstats.NewDataset("NoBench", jsonstats.Config{})
	fold := func(times int) {
		for i := 0; i < times; i++ {
			p.Recycle()
			v, err := p.Parse(doc)
			if err != nil {
				t.Fatal(err)
			}
			ds.AddDocument(v)
		}
	}
	fold(300)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fold(1000)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<10 {
		t.Errorf("1000 documents of %d bytes allocated %d bytes, want < 1 KB in total", len(doc), got)
	}
	if ds.DocCount != 1300 {
		t.Fatalf("DocCount = %d", ds.DocCount)
	}
}

// TestParallelAnalysisRecyclesBatches: the parallel reader copies every
// document into its batch's buffer, and a worker hands the buffer back once
// it has parsed the batch. Allocation then follows the workers and the
// summary, not the stream: at 2 workers, ten times the documents must
// allocate less than twice the bytes.
func TestParallelAnalysisRecyclesBatches(t *testing.T) {
	allocated := func(docs int) uint64 {
		var raw bytes.Buffer
		if err := datasets.NewTwitter().WriteTo(&raw, docs, 7); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := Reader("Twitter", bytes.NewReader(raw.Bytes()), Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(600), allocated(6000)
	if large >= 2*small {
		t.Errorf("2 workers: 6000 documents allocated %d bytes, 600 allocated %d; want less than twice", large, small)
	}
}
