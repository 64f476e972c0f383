package core

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/joda-explore/betze/internal/analyze"
	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/jsonval"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_sessions.txt from the sessions generated now")

const goldenSessionsFile = "testdata/golden_sessions.txt"

// goldenCorpus is one dataset family of the golden matrix, analysed once.
type goldenCorpus struct {
	name  string
	docs  []jsonval.Value
	stats *jsonstats.Dataset
}

func goldenCorpora() []goldenCorpus {
	sources := []struct {
		src datasets.Source
		n   int
	}{
		{datasets.NewNoBench(), 500}, // all 1000 sparse paths: the many-path case
		{datasets.NewTwitter(), 400},
		{datasets.NewReddit(datasets.RedditOptions{NullByteFraction: -1}), 500},
	}
	out := make([]goldenCorpus, len(sources))
	for i, s := range sources {
		docs := s.src.Generate(s.n, 11)
		out[i] = goldenCorpus{
			name:  s.src.Name,
			docs:  docs,
			stats: analyze.Values(s.src.Name, docs, analyze.Options{Workers: 1}),
		}
	}
	return out
}

var goldenVariants = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"aggregate", Options{Aggregate: true, GroupBy: true}},
	{"materialize", Options{Materialize: true}},
	{"transforms", Options{Materialize: true, Transforms: true}},
	{"weighted", Options{WeightedPaths: true}},
}

// sessionDigest is the first 16 hex digits of the SHA-256 of the session
// file: queries, node counts, verification flags and step edges.
func sessionDigest(t testing.TB, s *Session) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.File().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))[:16]
}

// TestGoldenSessions pins generated sessions to digests captured before the
// generator's summaries became indexed lazy views: {NoBench, Twitter, Reddit}
// x five option sets x three seeds, with and without a SliceBackend. Any
// change to path order, the rounding chain of derived statistics or the
// number of random draws per step shows up here as a digest mismatch.
// Regenerate (only for an intended behaviour change) with -update.
func TestGoldenSessions(t *testing.T) {
	got := make(map[string]string)
	for _, c := range goldenCorpora() {
		for _, v := range goldenVariants {
			for seed := int64(1); seed <= 3; seed++ {
				for _, verified := range []bool{false, true} {
					if verified && v.opts.Transforms {
						continue // Options.Validate: transforms cannot use a backend
					}
					o := v.opts
					o.Seed = seed
					backend := "estimated"
					if verified {
						o.Backend = SliceBackend{c.name: c.docs}
						backend = "verified"
					}
					key := fmt.Sprintf("%s/%s/seed%d/%s", c.name, v.name, seed, backend)
					s, err := Generate(o, c.stats)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					got[key] = sessionDigest(t, s)
				}
			}
		}
	}
	if *updateGolden {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(goldenSessionsFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenSessionsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key, digest, ok := strings.Cut(sc.Text(), " "); ok {
			want[key] = digest
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d sessions, the matrix has %d", len(want), len(got))
	}
	for key, digest := range got {
		if want[key] != digest {
			t.Errorf("%s: digest %s, golden %s", key, digest, want[key])
		}
	}
}

// TestGenerateConcurrentlyOnSharedSummary: betze-web workers and the
// multi-user harness generate from one analysed summary at once. The shared
// summary (attribute index, histograms fixing their buckets on first read)
// must be read-only once built, and each session's derived views private:
// every concurrent session equals the one generated alone from a fresh
// analysis. Run under -race.
func TestGenerateConcurrentlyOnSharedSummary(t *testing.T) {
	for _, c := range goldenCorpora() {
		opts := func(i int) Options {
			o := Options{Seed: int64(100 + i), Aggregate: true, GroupBy: true, WeightedPaths: i%4 == 3}
			if i%2 == 1 {
				o.Backend = SliceBackend{c.name: c.docs}
			}
			return o
		}
		const sessions = 8
		got := make([]string, sessions)
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s, err := Generate(opts(i), c.stats)
				if err != nil {
					t.Errorf("%s session %d: %v", c.name, i, err)
					return
				}
				got[i] = sessionDigest(t, s)
			}(i)
		}
		wg.Wait()
		for i := 0; i < sessions; i++ {
			alone, err := Generate(opts(i), analyze.Values(c.name, c.docs, analyze.Options{Workers: 1}))
			if err != nil {
				t.Fatal(err)
			}
			if want := sessionDigest(t, alone); got[i] != want {
				t.Errorf("%s session %d: digest %s concurrently, %s alone", c.name, i, got[i], want)
			}
		}
	}
}

// TestGenerationAllocsIndependentOfPathCount: without a backend, a query's
// allocations follow the paths the generator touches. Ten times the paths
// may cost at most twice the allocations (it cost about ten times when every
// derived summary was an eager copy and every draw sorted the paths).
func TestGenerationAllocsIndependentOfPathCount(t *testing.T) {
	perQuery := func(paths int) float64 {
		r := rand.New(rand.NewSource(4))
		docs := make([]jsonval.Value, 2000)
		for i := range docs {
			// Every document carries a tenth of the attributes, so a path's
			// own statistics look the same at either width.
			members := make([]jsonval.Member, 0, paths/10)
			for j := 0; j < paths/10; j++ {
				key := fmt.Sprintf("attr_%04d", (i*paths/10+j)%paths)
				members = append(members, jsonval.Member{Key: key, Value: jsonval.StringValue(fmt.Sprintf("v%d", r.Intn(8)))})
			}
			docs[i] = jsonval.ObjectValue(members...)
		}
		stats := analyze.Values("wide", docs, analyze.Options{Workers: 1})
		if n, _ := stats.Attributes(); len(n) != paths {
			t.Fatalf("summary has %d attributes, want %d", len(n), paths)
		}
		seed := int64(0)
		allocs := testing.AllocsPerRun(20, func() {
			seed++
			if _, err := Generate(Options{Seed: seed}, stats); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(Intermediate.Queries)
	}
	narrow, wide := perQuery(100), perQuery(1000)
	t.Logf("allocations per query: %.0f at 100 paths, %.0f at 1000 paths", narrow, wide)
	if wide > 2*narrow {
		t.Errorf("allocations per query grew %.1fx from 100 to 1000 paths, want at most 2x", wide/narrow)
	}
}

// TestEstimatedSessionAllocBudget pins the allocations of one estimated
// intermediate session over a 3,000-document NoBench summary (1,013 paths):
// about 9,100 with string tables that views share and factories read in key
// order, about 16,700 when every view copied its string maps and every draw
// sorted them.
func TestEstimatedSessionAllocBudget(t *testing.T) {
	src := datasets.NewNoBench()
	stats := analyze.Values(src.Name, src.Generate(3000, 29), analyze.Options{Workers: 1})
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Generate(Options{Preset: Intermediate, Seed: 7}, stats); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12000 {
		t.Errorf("an estimated NoBench session allocates %.0f times, want at most 12000", allocs)
	}
}
