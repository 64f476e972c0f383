package analyze

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/summary_*.json from the current analyzer")

// TestSummaryGolden pins the analysis file of each dataset family, byte for
// byte, against one file captured before the analyzer's per-document walk
// moved from path strings to a member-name trie, and requires it at every
// worker count: workers only parse, and one goroutine folds the documents in
// stream order. encoding/json sorts map keys, so the bytes depend on the
// statistics alone.
func TestSummaryGolden(t *testing.T) {
	sources := []datasets.Source{
		datasets.NewTwitter(),
		datasets.NewNoBench(),
		datasets.NewReddit(datasets.RedditOptions{}),
	}
	for _, src := range sources {
		var raw bytes.Buffer
		if err := src.WriteTo(&raw, 150, 11); err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", fmt.Sprintf("summary_%s.json", strings.ToLower(src.Name)))
		for _, workers := range []int{1, 2, 3, 8} {
			ds, err := Reader(src.Name, bytes.NewReader(raw.Bytes()), Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(ds)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if *updateGolden && workers == 1 {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s, %d worker(s): summary differs from %s (%d vs %d bytes)", src.Name, workers, golden, len(got), len(want))
			}
		}
	}
}

// TestSummaryPinsNoDocumentMemory: parsed strings point into slab chunks
// shared by neighbouring documents, so a summary that kept one as a map key
// would keep its whole chunk — and counting a value that is already a key
// re-points the key at the latest occurrence. After analysing 32 MB of string
// payload only the summary's own clones (32 sampled values per path) stay
// reachable.
func TestSummaryPinsNoDocumentMemory(t *testing.T) {
	const docs, payload = 2048, 16 << 10
	for _, workers := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		pr, pw := io.Pipe()
		go func() {
			body := strings.Repeat("x", payload)
			for i := 0; i < docs; i++ {
				fmt.Fprintf(pw, `{"id":%d,"tag":"t%d","body":"%d%s"}`+"\n", i, i/70, i, body) // a new tag every 70 documents: each first sight in another chunk
			}
			pw.Close()
		}()
		ds, err := Reader("big", pr, Options{Workers: workers})
		if err != nil || ds.DocCount != docs {
			t.Fatalf("%d workers: %v, %v", workers, ds, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live > 2<<20 {
			t.Errorf("%d workers: %d KB live with only the summary of %d MB of documents reachable", workers, live>>10, docs*payload>>20)
		}
		runtime.KeepAlive(ds)
	}
}
