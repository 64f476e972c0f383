// Benchmarks regenerating every table and figure of the paper (macro
// benches, one per experiment), the ablation studies called out in
// DESIGN.md, and micro benchmarks of the building blocks. Run a single
// experiment with e.g.
//
//	go test -bench 'BenchmarkFig10' -benchtime 1x
package betze_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/joda-explore/betze"
	"github.com/joda-explore/betze/internal/analyze"
	"github.com/joda-explore/betze/internal/bsonlite"
	"github.com/joda-explore/betze/internal/harness"
	"github.com/joda-explore/betze/internal/jsonblite"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/lz"
	"github.com/joda-explore/betze/internal/query"
)

// benchEnv is shared across the macro benches: datasets are generated and
// analyzed once. The scale is deliberately small so the full bench suite
// finishes in minutes; raise it via cmd/betze-bench for paper-scale runs.
var (
	envOnce sync.Once
	env     *harness.Env
	envErr  error
)

func benchEnvironment(b *testing.B) *harness.Env {
	b.Helper()
	envOnce.Do(func() {
		env, envErr = harness.NewEnv(harness.Config{
			TwitterDocs:  3000,
			NoBenchDocs:  5000,
			NoBenchSweep: []int{1000, 5000, 20000},
			RedditDocs:   5000,
			Sessions:     5,
			GridSessions: 1,
			Timeout:      2 * time.Minute,
			Seed:         123,
		})
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

// benchExperiment runs one paper experiment per iteration and logs its
// rendered output once.
func benchExperiment(b *testing.B, id string) {
	e := benchEnvironment(b)
	exp, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		res, err = exp.Run(context.Background(), e)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if testing.Verbose() {
		b.Logf("%s:\n%s", exp.Title, res.Text())
	}
}

// One macro bench per table and figure of the paper.

func BenchmarkPresetsTable1(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkFig5UserTrends(b *testing.B)          { benchExperiment(b, "fig5") }
func BenchmarkFig6SessionDistribution(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7AlphaBetaGrid(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8PredicateMix(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9ThreadScaling(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10DatasetScaling(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkTable2SessionTimes(b *testing.B)      { benchExperiment(b, "table2") }
func BenchmarkTable3Matrix(b *testing.B)            { benchExperiment(b, "table3") }
func BenchmarkTable4PathDepths(b *testing.B)        { benchExperiment(b, "table4") }
func BenchmarkGenerationCost(b *testing.B)          { benchExperiment(b, "gencost") }
func BenchmarkAttributeSkew(b *testing.B)           { benchExperiment(b, "skew") }

// --- Ablation benches (design choices called out in DESIGN.md) ---

// benchSession builds a reusable session and dataset for engine ablations.
func ablationWorkload(b *testing.B, docs int) ([]jsonval.Value, *betze.Session) {
	b.Helper()
	values := betze.TwitterSource().Generate(docs, 11)
	stats := betze.AnalyzeValues("Twitter", values, betze.AnalyzeOptions{})
	backend := betze.NewJODA(betze.JODAOptions{})
	backend.ImportValues("Twitter", values)
	defer backend.Close()
	session, err := betze.Generate(betze.Options{Preset: betze.Novice, Seed: 123, Backend: backend}, stats)
	if err != nil {
		b.Fatal(err)
	}
	return values, session
}

// BenchmarkAblationResultCache quantifies jodasim's per-predicate result
// cache — the delta-tree mechanism behind Fig. 5's declining query times.
func BenchmarkAblationResultCache(b *testing.B) {
	docs, session := ablationWorkload(b, 4000)
	for _, cached := range []bool{true, false} {
		name := "cached"
		if !cached {
			name = "nocache"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := betze.NewJODA(betze.JODAOptions{DisableCache: !cached})
				eng.ImportValues("Twitter", docs)
				for _, q := range session.Queries {
					if _, err := eng.Execute(context.Background(), q, io.Discard); err != nil {
						b.Fatal(err)
					}
				}
				eng.Close()
			}
		})
	}
}

// BenchmarkAblationAnalyzeParallel compares the analyzer's serial decoder
// loop (one worker) with its parse/fold pipeline (two parsing workers) on
// serialised datasets; the summaries are identical, only the time differs.
func BenchmarkAblationAnalyzeParallel(b *testing.B) {
	for _, src := range []betze.DatasetSource{betze.TwitterSource(), betze.NoBenchSource()} {
		var raw bytes.Buffer
		if err := src.WriteTo(&raw, 4000, 13); err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", src.Name, workers), func(b *testing.B) {
				b.SetBytes(int64(raw.Len()))
				for i := 0; i < b.N; i++ {
					if _, err := analyze.Reader(src.Name, bytes.NewReader(raw.Bytes()), analyze.Options{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationVerification compares generation with backend-verified
// selectivities against statistics-only scaling (the paper's
// "not recommended" mode).
func BenchmarkAblationVerification(b *testing.B) {
	docs := betze.TwitterSource().Generate(4000, 17)
	stats := betze.AnalyzeValues("Twitter", docs, betze.AnalyzeOptions{})
	b.Run("verified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			backend := betze.NewJODA(betze.JODAOptions{})
			backend.ImportValues("Twitter", docs)
			if _, err := betze.Generate(betze.Options{Preset: betze.Novice, Seed: int64(i), Backend: backend}, stats); err != nil {
				b.Fatal(err)
			}
			backend.Close()
		}
	})
	b.Run("stats-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := betze.Generate(betze.Options{Preset: betze.Novice, Seed: int64(i)}, stats); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationLazyBSON compares mongosim's BSON-to-JSON cursor
// streaming against the decode-then-serialise path a transform forces.
func BenchmarkAblationLazyBSON(b *testing.B) {
	docs, session := ablationWorkload(b, 4000)
	run := func(name string, opts betze.MongoOptions, queries []*query.Query) {
		b.Run(name, func(b *testing.B) {
			eng := betze.NewMongoDB(opts)
			eng.ImportValues("Twitter", docs)
			defer eng.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := eng.Execute(context.Background(), q, io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	run("lazy", betze.MongoOptions{}, session.Queries)
	// Return every document: removing an absent attribute changes nothing
	// but makes the cursor materialise each document first.
	noop := &query.Transform{Ops: []query.TransformOp{{Kind: query.TransformRemove, Path: "/no_such_attribute"}}}
	run("decode+serialise", betze.MongoOptions{}, []*query.Query{{Base: "Twitter", Transform: noop}})
	run("transcode", betze.MongoOptions{}, []*query.Query{{Base: "Twitter"}})
}

// BenchmarkAblationWeightedPaths compares generation with and without the
// depth-weighted attribute choice of §IV-C.
func BenchmarkAblationWeightedPaths(b *testing.B) {
	docs := betze.TwitterSource().Generate(3000, 19)
	stats := betze.AnalyzeValues("Twitter", docs, betze.AnalyzeOptions{})
	for _, weighted := range []bool{false, true} {
		name := "uniform"
		if weighted {
			name = "weighted"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := betze.Generate(betze.Options{Seed: int64(i), WeightedPaths: weighted}, stats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro benches of the substrates ---

// benchSim is one of the four sims the per-sim micro benches run, opened
// fresh per sub-benchmark.
type benchSim struct {
	name string
	new  func() (betze.Engine, error)
}

func benchSims(b *testing.B) []benchSim {
	return []benchSim{
		{"joda", func() (betze.Engine, error) { return betze.NewJODA(betze.JODAOptions{}), nil }},
		{"mongo", func() (betze.Engine, error) { return betze.NewMongoDB(betze.MongoOptions{}), nil }},
		{"pg", func() (betze.Engine, error) { return betze.NewPostgreSQL(betze.PostgresOptions{}), nil }},
		{"jq", func() (betze.Engine, error) { return betze.NewJQ(b.TempDir()) }},
	}
}

// benchCorpus is one dataset family at the perf ledger's default document
// count, written as an NDJSON file, and a filter nearly all its documents
// pass.
type benchCorpus struct {
	name, path string
	size       int64
	broad      query.Predicate
}

// benchCorpora writes the three dataset families into dir: 600 Twitter,
// 3,000 NoBench and 3,000 Reddit documents.
func benchCorpora(b *testing.B, dir string) []benchCorpus {
	var out []benchCorpus
	for _, ds := range []struct {
		src   betze.DatasetSource
		docs  int
		broad jsonval.Path
	}{
		{betze.TwitterSource(), 600, "/user"},
		{betze.NoBenchSource(), 3000, "/str1"},
		{betze.RedditSource(betze.RedditOptions{NullByteFraction: -1}), 3000, "/author"},
	} {
		path := filepath.Join(dir, ds.src.Name+".json")
		if err := ds.src.WriteFile(path, ds.docs, 1); err != nil {
			b.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, benchCorpus{name: ds.src.Name, path: path, size: info.Size(), broad: query.Exists{Path: ds.broad}})
	}
	return out
}

// BenchmarkSimImport times each sim's ImportFile on each dataset family at
// the perf ledger's default document counts: MB/s of the file read, and B/op
// and allocs/op of one import into a warm engine (a re-import replaces the
// dataset).
func BenchmarkSimImport(b *testing.B) {
	sims := benchSims(b)
	for _, ds := range benchCorpora(b, b.TempDir()) {
		for _, sim := range sims {
			b.Run(sim.name+"/"+ds.name, func(b *testing.B) {
				eng, err := sim.new()
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				b.SetBytes(ds.size)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.ImportFile(context.Background(), ds.name, ds.path); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimStore times one materialising query per sim on each dataset
// family at the perf ledger's default document counts: a broad filter whose
// matches are returned and stored as a derived dataset, the store path a
// materialising session takes on every query. Each iteration replaces the
// stored result; jodasim answers every iteration after the first from its
// result cache.
func BenchmarkSimStore(b *testing.B) {
	sims := benchSims(b)
	for _, ds := range benchCorpora(b, b.TempDir()) {
		for _, sim := range sims {
			b.Run(sim.name+"/"+ds.name, func(b *testing.B) {
				eng, err := sim.new()
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				if _, err := eng.ImportFile(context.Background(), ds.name, ds.path); err != nil {
					b.Fatal(err)
				}
				q := &query.Query{ID: "store", Base: ds.name, Filter: ds.broad, Store: "derived"}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Execute(context.Background(), q, io.Discard); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func twitterSample(n int) ([]jsonval.Value, [][]byte) {
	docs := betze.TwitterSource().Generate(n, 23)
	raw := make([][]byte, n)
	for i, d := range docs {
		raw[i] = jsonval.AppendJSON(nil, d)
	}
	return docs, raw
}

func BenchmarkJSONParse(b *testing.B) {
	docs, raw := twitterSample(500)
	var bytes int64
	for _, r := range raw {
		bytes += int64(len(r))
	}
	_ = docs
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range raw {
			if _, err := jsonval.Parse(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkJSONSerialize(b *testing.B) {
	docs, raw := twitterSample(500)
	var bytes int64
	for _, r := range raw {
		bytes += int64(len(r))
	}
	b.SetBytes(bytes)
	buf := make([]byte, 0, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range docs {
			buf = jsonval.AppendJSON(buf[:0], d)
		}
	}
}

func BenchmarkBSONEncode(b *testing.B) {
	docs, _ := twitterSample(500)
	buf := make([]byte, 0, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range docs {
			buf = bsonlite.Encode(buf[:0], d)
		}
	}
}

func BenchmarkBSONLookupVsDecode(b *testing.B) {
	docs, _ := twitterSample(500)
	encoded := make([][]byte, len(docs))
	for i, d := range docs {
		encoded[i] = bsonlite.Encode(nil, d)
	}
	path := jsonval.ParsePath("/user/verified")
	b.Run("lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range encoded {
				if _, _, err := bsonlite.Lookup(e, path); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range encoded {
				if _, err := bsonlite.Decode(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	var buf []byte
	b.Run("decode+serialise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range encoded {
				v, err := bsonlite.Decode(e)
				if err != nil {
					b.Fatal(err)
				}
				buf = jsonval.AppendJSON(buf[:0], v)
			}
		}
	})
	b.Run("transcode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, e := range encoded {
				var err error
				if buf, err = bsonlite.AppendJSON(buf[:0], e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkJSONBEncodeDecode(b *testing.B) {
	docs, _ := twitterSample(500)
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, d := range docs {
				if _, err := jsonblite.Encode(nil, d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	encoded := make([][]byte, len(docs))
	for i, d := range docs {
		data, err := jsonblite.Encode(nil, d)
		if err != nil {
			b.Fatal(err)
		}
		encoded[i] = data
	}
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, e := range encoded {
				if _, err := jsonblite.Decode(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkPredicateEval(b *testing.B) {
	docs, _ := twitterSample(2000)
	pred := query.And{
		Left:  query.Exists{Path: "/user"},
		Right: query.FloatCmp{Path: "/user/followers_count", Op: query.Ge, Value: 1000},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range docs {
			pred.Eval(d)
		}
	}
}

// recordingBackend is a verification backend that records every predicate
// the generator asks it to count.
type recordingBackend struct {
	betze.Backend
	preds []query.Predicate
}

func (r *recordingBackend) CountMatching(base string, pred query.Predicate) (int64, error) {
	r.preds = append(r.preds, pred)
	return r.Backend.CountMatching(base, pred)
}

// BenchmarkCompiledEval prices one compiled-predicate evaluation on the scan
// hot path (Evaluator.EvalAt) over the predicates generation produces: the
// filters of generated sessions, and the predicates the generator's
// verification backend counts while choosing them. ns/eval is per document
// per predicate.
func BenchmarkCompiledEval(b *testing.B) {
	for _, src := range []betze.DatasetSource{betze.TwitterSource(), betze.NoBenchSource()} {
		docs := src.Generate(1000, 29)
		stats := betze.AnalyzeValues(src.Name, docs, betze.AnalyzeOptions{})
		backend := betze.NewJODA(betze.JODAOptions{})
		backend.ImportValues(src.Name, docs)
		rec := &recordingBackend{Backend: backend}
		var filters []query.Predicate
		for seed := int64(1); seed <= 5; seed++ {
			session, err := betze.Generate(betze.Options{Preset: betze.Intermediate, Seed: seed, Backend: rec}, stats)
			if err != nil {
				b.Fatal(err)
			}
			for _, q := range session.Queries {
				if q.Filter != nil {
					filters = append(filters, q.Filter)
				}
			}
		}
		backend.Close()
		for _, set := range []struct {
			name  string
			preds []query.Predicate
		}{{"session", filters}, {"verify", rec.preds}} {
			b.Run(src.Name+"/"+set.name, func(b *testing.B) {
				evals := make([]*query.Evaluator, len(set.preds))
				for i, p := range set.preds {
					evals[i] = query.Compile(p).Evaluator()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, e := range evals {
						for j := range docs {
							e.EvalAt(&docs[j])
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evals)*len(docs)), "ns/eval")
			})
		}
	}
}

// BenchmarkGenerateSession times one intermediate session per iteration on a
// few-path summary (Twitter, 168 paths) and a many-path one (NoBench, 1013),
// verified by a JODA backend and from estimates alone. A step's cost follows
// the paths it touches, so the estimated NoBench row must stay near the
// estimated Twitter row's order of magnitude; the verified rows are the
// backend's scans.
func BenchmarkGenerateSession(b *testing.B) {
	for _, c := range []struct {
		name     string
		source   betze.DatasetSource
		verified bool
	}{
		{"twitter/verified", betze.TwitterSource(), true},
		{"twitter/estimated", betze.TwitterSource(), false},
		{"nobench/verified", betze.NoBenchSource(), true},
		{"nobench/estimated", betze.NoBenchSource(), false},
	} {
		b.Run(c.name, func(b *testing.B) {
			docs := c.source.Generate(3000, 29)
			stats := betze.AnalyzeValues(c.source.Name, docs, betze.AnalyzeOptions{})
			opts := betze.Options{Preset: betze.Intermediate}
			if c.verified {
				backend := betze.NewJODA(betze.JODAOptions{})
				backend.ImportValues(c.source.Name, docs)
				defer backend.Close()
				opts.Backend = backend
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts.Seed = int64(i)
				if _, err := betze.Generate(opts, stats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTransforms measures the cost of the transformation stage
// (the §VII extension) relative to plain materialised sessions.
func BenchmarkAblationTransforms(b *testing.B) {
	docs := betze.TwitterSource().Generate(3000, 37)
	stats := betze.AnalyzeValues("Twitter", docs, betze.AnalyzeOptions{})
	for _, transforms := range []bool{false, true} {
		name := "plain"
		if transforms {
			name = "transforms"
		}
		session, err := betze.Generate(betze.Options{
			Preset: betze.Intermediate, Seed: 3,
			Materialize: true, Transforms: transforms, TransformFraction: 1,
		}, stats)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := betze.NewJODA(betze.JODAOptions{})
				eng.ImportValues("Twitter", docs)
				for _, q := range session.Queries {
					if _, err := eng.Execute(context.Background(), q, io.Discard); err != nil {
						b.Fatal(err)
					}
				}
				eng.Close()
			}
		})
	}
}

// BenchmarkLZCodec measures the storage codec the engines share (pglz/snappy
// stand-in).
func BenchmarkLZCodec(b *testing.B) {
	_, raw := twitterSample(500)
	var flat []byte
	for _, r := range raw {
		flat = append(flat, r...)
		flat = append(flat, '\n')
	}
	compressed := lz.Compress(nil, flat)
	b.Logf("ratio: %d -> %d bytes (%.1f%%)", len(flat), len(compressed), 100*float64(len(compressed))/float64(len(flat)))
	b.Run("compress", func(b *testing.B) {
		b.SetBytes(int64(len(flat)))
		buf := make([]byte, 0, len(flat))
		for i := 0; i < b.N; i++ {
			buf = lz.Compress(buf[:0], flat)
		}
	})
	b.Run("decompress", func(b *testing.B) {
		b.SetBytes(int64(len(flat)))
		buf := make([]byte, 0, len(flat))
		for i := 0; i < b.N; i++ {
			var err error
			buf, err = lz.Decompress(buf[:0], compressed)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
