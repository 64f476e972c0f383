package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/joda-explore/betze/internal/analyze"
	"github.com/joda-explore/betze/internal/bsonlite"
	"github.com/joda-explore/betze/internal/engine/mongosim"
	"github.com/joda-explore/betze/internal/engine/pgsim"
	"github.com/joda-explore/betze/internal/engine/scan"
	"github.com/joda-explore/betze/internal/fsatomic"
	"github.com/joda-explore/betze/internal/harness"
	"github.com/joda-explore/betze/internal/jobqueue"
	"github.com/joda-explore/betze/internal/jsonblite"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/lz"
	"github.com/joda-explore/betze/internal/obs"
	"github.com/joda-explore/betze/internal/query"
	"github.com/joda-explore/betze/internal/runlog"
	"github.com/joda-explore/betze/internal/shard"
)

// replay runs the workload's own dataset and the predicates and paths of its
// generated sessions through the lower layers, one kernel at a time, with the
// work counts beside the times. These are the layers as the sims use them,
// measured without the sims around them.
type replay struct {
	p       *pipeline
	res     *runResult
	slice   time.Duration // measuring time per kernel
	raw     []byte
	docs    []jsonval.Value
	queries []*query.Query
	rates   kernelRates
}

// kernelRates are the unit costs the execute-split estimate multiplies the
// sims' work counts by.
type kernelRates struct {
	parsePerByte, serialisePerByte   float64 // seconds per JSON byte
	evalPerDoc, aggPerDoc            float64 // seconds per document
	prunePerShard                    float64
	lookupPerDoc                     float64 // one bsonlite path lookup
	bsonDecodePerDoc, jsonbDecodeDoc float64
	lzDecompressPerDoc               float64 // inflating one document's share of a block
	detoastPerDoc                    float64 // inflating one pgsim row (nothing for a row under the threshold)
	jsonbLookupPerDoc                float64 // one jsonblite binary-search path lookup
	shards                           int
}

// kernel repeats pass until the slice is used up (at least once) and returns
// the median seconds of a pass and the number of passes.
func (rp *replay) kernel(pass func()) (float64, int) {
	runtime.GC()
	var times []float64
	for start := time.Now(); len(times) == 0 || time.Since(start) < rp.slice; {
		t0 := time.Now()
		pass()
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), len(times)
}

func mbPerS(bytes int, seconds float64) float64 { return float64(bytes) / 1e6 / seconds }

func (rp *replay) run(ctx context.Context, sessions []sessionRun) error {
	var err error
	if rp.raw, err = os.ReadFile(rp.p.path); err != nil {
		return err
	}
	for _, s := range sessions {
		rp.queries = append(rp.queries, s.queries...)
	}
	rp.json()
	if err := rp.binary(); err != nil {
		return err
	}
	if err := rp.predicates(ctx); err != nil {
		return err
	}
	if err := rp.durability(ctx); err != nil {
		return err
	}
	if err := rp.wrappers(ctx, sessions[0].queries); err != nil {
		return err
	}
	return nil
}

// json measures the jsonval parser and serialiser and the analyzer's
// in-memory walk.
func (rp *replay) json() {
	res, nd := rp.res, float64(len(rp.docs))
	sec, n := rp.kernel(func() {
		dec := jsonval.NewDecoder(bytes.NewReader(rp.raw))
		for {
			if _, err := dec.Decode(); err != nil {
				break // io.EOF: the pipeline parsed this file without error
			}
		}
	})
	res.set("jsonval.parse_mb_per_s", mbPerS(len(rp.raw), sec), n)
	rp.rates.parsePerByte = sec / float64(len(rp.raw))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	dec := jsonval.NewDecoder(bytes.NewReader(rp.raw))
	for {
		if _, err := dec.Decode(); err != nil {
			break
		}
	}
	runtime.ReadMemStats(&after)
	res.set("jsonval.parse_allocs_per_doc", float64(after.Mallocs-before.Mallocs)/nd, len(rp.docs))

	var buf []byte
	var out int
	sec, n = rp.kernel(func() {
		out = 0
		for _, d := range rp.docs {
			buf = jsonval.AppendJSON(buf[:0], d)
			out += len(buf)
		}
	})
	res.set("jsonval.serialise_mb_per_s", mbPerS(out, sec), n)
	rp.rates.serialisePerByte = sec / float64(out)

	sec, n = rp.kernel(func() { analyze.Values(rp.p.src.Name, rp.docs, analyze.Options{}) })
	res.set("analyze.values_ns_per_doc", 1e9*sec/nd, n)
}

// binary measures the two storage codecs and the block compressor on the
// shapes the sims give them: bsonlite documents packed into mongosim-sized
// blocks, jsonblite rows one by one.
func (rp *replay) binary() error {
	res, nd := rp.res, float64(len(rp.docs))
	var paths []jsonval.Path
	seen := map[jsonval.Path]bool{}
	for _, q := range rp.queries {
		for _, path := range q.Paths() {
			if !seen[path] {
				seen[path] = true
				paths = append(paths, path)
			}
		}
	}

	bson := make([][]byte, len(rp.docs))
	var bsonBytes int
	sec, n := rp.kernel(func() {
		bsonBytes = 0
		for i, d := range rp.docs {
			bson[i] = bsonlite.Encode(bson[i][:0], d)
			bsonBytes += len(bson[i])
		}
	})
	res.set("bsonlite.encode_mb_per_s", mbPerS(bsonBytes, sec), n)
	res.set("bsonlite.stored_ratio", float64(bsonBytes)/float64(len(rp.raw)), len(rp.docs))

	var lookupErr error
	sec, n = rp.kernel(func() {
		for _, b := range bson {
			for _, path := range paths {
				if _, _, err := bsonlite.Lookup(b, path); err != nil {
					lookupErr = err
				}
			}
		}
	})
	if lookupErr != nil {
		return fmt.Errorf("bsonlite.Lookup: %w", lookupErr)
	}
	rp.rates.lookupPerDoc = sec / nd / float64(max(1, len(paths)))
	res.set("bsonlite.lookup_ns_per_doc", 1e9*rp.rates.lookupPerDoc, n)

	var decodeErr error
	sec, n = rp.kernel(func() {
		for _, b := range bson {
			if _, err := bsonlite.Decode(b); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("bsonlite.Decode: %w", decodeErr)
	}
	res.set("bsonlite.decode_mb_per_s", mbPerS(bsonBytes, sec), n)
	rp.rates.bsonDecodePerDoc = sec / nd

	jsonb := make([][]byte, len(rp.docs))
	var jsonbBytes int
	var encodeErr error
	sec, n = rp.kernel(func() {
		jsonbBytes = 0
		for i, d := range rp.docs {
			var err error
			if jsonb[i], err = jsonblite.Encode(jsonb[i][:0], d); err != nil {
				encodeErr = err
			}
			jsonbBytes += len(jsonb[i])
		}
	})
	if encodeErr != nil {
		return fmt.Errorf("jsonblite.Encode: %w", encodeErr)
	}
	res.set("jsonblite.encode_mb_per_s", mbPerS(jsonbBytes, sec), n)
	res.set("jsonblite.stored_ratio", float64(jsonbBytes)/float64(len(rp.raw)), len(rp.docs))
	sec, n = rp.kernel(func() {
		for _, b := range jsonb {
			if _, err := jsonblite.Decode(b); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("jsonblite.Decode: %w", decodeErr)
	}
	res.set("jsonblite.decode_mb_per_s", mbPerS(jsonbBytes, sec), n)
	rp.rates.jsonbDecodeDoc = sec / nd

	// Two more rates feed only the execute-split estimate for pgsim: its
	// per-leaf path lookup and its per-row detoast.
	sec, _ = rp.kernel(func() {
		for _, b := range jsonb {
			for _, path := range paths {
				if _, _, err := jsonblite.LookupBinary(b, path); err != nil {
					lookupErr = err
				}
			}
		}
	})
	if lookupErr != nil {
		return fmt.Errorf("jsonblite.LookupBinary: %w", lookupErr)
	}
	rp.rates.jsonbLookupPerDoc = sec / nd / float64(max(1, len(paths)))
	toasted := make([][]byte, 0, len(jsonb))
	for _, b := range jsonb {
		if len(b) > pgsim.DefaultToastThreshold {
			toasted = append(toasted, lz.Compress(nil, b))
		}
	}
	var row []byte
	sec, _ = rp.kernel(func() {
		for _, b := range toasted {
			var err error
			if row, err = lz.Decompress(row[:0], b); err != nil {
				decodeErr = err
			}
		}
	})
	rp.rates.detoastPerDoc = sec / nd

	var blocks [][]byte
	var block []byte
	for _, b := range bson {
		if block = append(block, b...); len(block) >= mongosim.DefaultBlockSize {
			blocks, block = append(blocks, block), nil
		}
	}
	if len(block) > 0 {
		blocks = append(blocks, block)
	}
	packed := make([][]byte, len(blocks))
	var packedBytes int
	sec, n = rp.kernel(func() {
		packedBytes = 0
		for i, b := range blocks {
			packed[i] = lz.Compress(packed[i][:0], b)
			packedBytes += len(packed[i])
		}
	})
	res.set("lz.compress_mb_per_s", mbPerS(bsonBytes, sec), n)
	res.set("lz.ratio", float64(packedBytes)/float64(bsonBytes), len(blocks))
	var inflated []byte
	sec, n = rp.kernel(func() {
		for _, b := range packed {
			var err error
			if inflated, err = lz.Decompress(inflated[:0], b); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("lz.Decompress: %w", decodeErr)
	}
	res.set("lz.decompress_mb_per_s", mbPerS(bsonBytes, sec), n)
	rp.rates.lzDecompressPerDoc = sec / nd
	return nil
}

// predicates measures zone-map construction, predicate compilation, the two
// evaluation entry points, aggregation, the zone check and the scan kernel
// over the sessions' own filters.
func (rp *replay) predicates(ctx context.Context) error {
	res, nd, nq := rp.res, float64(len(rp.docs)), float64(len(rp.queries))
	var store *shard.Store
	sec, n := rp.kernel(func() { store = shard.Build(rp.docs, shard.DefaultSize) })
	res.set("shard.build_ns_per_doc", 1e9*sec/nd, n)
	rp.rates.shards = store.NumShards()

	compiled := make([]query.CompiledPredicate, len(rp.queries))
	sec, n = rp.kernel(func() {
		for i, q := range rp.queries {
			compiled[i] = query.Compile(q.Filter)
		}
	})
	res.set("query.compile_us_per_query", 1e6*sec/nq, n)

	sec, n = rp.kernel(func() {
		for _, c := range compiled {
			ev := c.Evaluator()
			for i := range rp.docs {
				ev.EvalAt(&rp.docs[i])
			}
		}
	})
	rp.rates.evalPerDoc = sec / nq / nd
	res.set("query.eval_ns_per_doc", 1e9*rp.rates.evalPerDoc, n)

	keep := make([]bool, shard.DefaultSize)
	sec, n = rp.kernel(func() {
		for _, c := range compiled {
			ev := c.Evaluator()
			for s := 0; s < store.NumShards(); s++ {
				ev.EvalBlock(store.Shard(s).Docs, keep)
			}
		}
	})
	res.set("query.evalblock_ns_per_doc", 1e9*sec/nq/nd, n)

	sec, n = rp.kernel(func() {
		for _, q := range rp.queries {
			agg := query.NewAggregator(replayAggregation(q))
			for _, d := range rp.docs {
				agg.Add(d)
			}
			agg.Result()
		}
	})
	rp.rates.aggPerDoc = sec / nq / nd
	res.set("query.aggregate_ns_per_doc", 1e9*rp.rates.aggPerDoc, n)

	var skipped int
	sec, n = rp.kernel(func() {
		skipped = 0
		for _, c := range compiled {
			for s := 0; s < store.NumShards(); s++ {
				if c.CanSkip(store.Shard(s).Zone) {
					skipped++
				}
			}
		}
	})
	checks := len(compiled) * store.NumShards()
	rp.rates.prunePerShard = sec / float64(checks)
	res.set("query.prune_check_ns_per_shard", 1e9*rp.rates.prunePerShard, n)
	res.set("query.prune_skip_share", float64(skipped)/float64(checks), checks)

	filter := func(workers int) (float64, int, error) {
		var ferr error
		sec, n := rp.kernel(func() {
			for _, c := range compiled {
				_, err := scan.Filter(ctx, scan.Options{Workers: workers}, rp.docs,
					func(_ int, d jsonval.Value) (bool, error) { return c.Eval(d), nil })
				if err != nil {
					ferr = err
				}
			}
		})
		return sec, n, ferr
	}
	one, n, err := filter(1)
	if err != nil {
		return fmt.Errorf("scan.Filter: %w", err)
	}
	res.set("scan.filter_ns_per_item", 1e9*one/nq/nd, n)
	if procs := runtime.GOMAXPROCS(0); procs > 1 {
		all, n, err := filter(procs)
		if err != nil {
			return fmt.Errorf("scan.Filter: %w", err)
		}
		res.set("scan.parallel_speedup", one/all, n)
	}
	return nil
}

// replayAggregation is the query's own aggregation stage; a query without one
// (every workload but nobench-aggregate) is given COUNT over its first
// filter path, so the aggregator's per-document cost is measured everywhere.
func replayAggregation(q *query.Query) query.Aggregation {
	if q.Agg != nil {
		return *q.Agg
	}
	agg := query.Aggregation{Func: query.Count, Path: jsonval.ParsePath("/")}
	if paths := q.Paths(); len(paths) > 0 {
		agg.Path = paths[0]
	}
	return agg
}

// opMicros times n calls of op one by one and returns the median in µs.
func opMicros(n int, op func(i int) error) (float64, error) {
	times := make([]float64, n)
	for i := range times {
		start := time.Now()
		if err := op(i); err != nil {
			return 0, err
		}
		times[i] = 1e6 * time.Since(start).Seconds()
	}
	return median(times), nil
}

// durabilityOps is how many operations each durability kernel times; each
// is one or more fsyncs, so the count is kept small.
const durabilityOps = 40

// durability measures the journal, the atomic file publisher and the job
// queue with their default fsync policy on the benchmark's own filesystem.
func (rp *replay) durability(ctx context.Context) error {
	res := rp.res
	dir, err := os.MkdirTemp(rp.p.dir, "durability-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	journal, err := runlog.Create(filepath.Join(dir, "journal"), runlog.Options{})
	if err != nil {
		return err
	}
	defer journal.Close()
	payload := bytes.Repeat([]byte("x"), 256) // the size of a queue record
	us, err := opMicros(durabilityOps, func(int) error { return journal.AppendSync(payload) })
	if err != nil {
		return fmt.Errorf("runlog.AppendSync: %w", err)
	}
	res.set("runlog.appendsync_us", us, durabilityOps)

	artifact := bytes.Repeat([]byte("y"), 4096) // the size of a campaign artifact
	us, err = opMicros(durabilityOps, func(i int) error {
		return fsatomic.WriteFile(filepath.Join(dir, fmt.Sprintf("artifact-%d.json", i)), artifact, 0o644)
	})
	if err != nil {
		return fmt.Errorf("fsatomic.WriteFile: %w", err)
	}
	res.set("fsatomic.writefile_us", us, durabilityOps)

	// Quotas far above the loop's rate: admission control is not under test.
	queue, err := jobqueue.Open(filepath.Join(dir, "queue"), jobqueue.Options{
		MaxQueued: 2 * durabilityOps, TenantRate: 1e6, TenantBurst: 1e6,
	})
	if err != nil {
		return err
	}
	defer queue.Close()
	spec := json.RawMessage(`{"preset":"expert"}`)
	us, err = opMicros(durabilityOps, func(int) error {
		_, err := queue.Submit("bench", spec)
		return err
	})
	if err != nil {
		return fmt.Errorf("jobqueue.Submit: %w", err)
	}
	res.set("jobqueue.submit_us", us, durabilityOps)
	// The jobs just submitted are claimed and finished by an empty executor:
	// claim, running, one checkpoint, done.
	us, err = opMicros(durabilityOps, func(int) error {
		job, err := queue.Claim(ctx)
		if err != nil {
			return err
		}
		if err := queue.Running(job.ID, func() {}); err != nil {
			return err
		}
		if err := queue.Checkpoint(job.ID, "unit", spec); err != nil {
			return err
		}
		return queue.Done(job.ID)
	})
	if err != nil {
		return fmt.Errorf("jobqueue cycle: %w", err)
	}
	res.set("jobqueue.cycle_us", us, durabilityOps)
	return nil
}

// wrappers measures what the resilient executor and a live observability
// scope add around a mongosim session: the same session runs bare, under the
// scope and through harness.RunQueries in turn, on one imported engine reset
// between runs, for ten kernel slices and no fewer than four rounds.
func (rp *replay) wrappers(ctx context.Context, queries []*query.Query) error {
	eng := mongosim.New(mongosim.Options{})
	defer eng.Close()
	if _, err := eng.ImportFile(ctx, rp.p.src.Name, rp.p.path); err != nil {
		return err
	}
	bare := func(ctx context.Context) (float64, error) {
		if err := eng.Reset(); err != nil {
			return 0, err
		}
		runtime.GC()
		start := time.Now()
		for _, q := range queries {
			if _, err := eng.Execute(ctx, q, io.Discard); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
	observed := obs.With(ctx, obs.Scope{Metrics: obs.NewRegistry(), Trace: obs.NewRecorder(io.Discard)})
	var scopeShare [2][]float64 // by which side ran first, see balanced
	var harnessShare []float64
	for i, start := 0, time.Now(); i < 4 || time.Since(start) < 10*rp.slice; i++ {
		order := []context.Context{ctx, observed}
		if i%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		var secs [2]float64
		for k, c := range order {
			var err error
			if secs[(k+i)%2], err = bare(c); err != nil {
				return err
			}
		}
		scopeShare[i%2] = append(scopeShare[i%2], secs[1]/secs[0]-1)

		if err := eng.Reset(); err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		outcomes, _ := harness.RunQueries(ctx, eng, queries, harness.DefaultRetryPolicy(), io.Discard, "replay")
		wall := time.Since(t0).Seconds()
		var inside float64
		for _, o := range outcomes {
			if o.Err != nil {
				return o.Err
			}
			inside += o.Stats.Duration.Seconds()
		}
		harnessShare = append(harnessShare, (wall-inside)/wall)
	}
	rp.res.set("obs.overhead_share", balanced(scopeShare), len(harnessShare))
	rp.res.set("harness.runqueries_overhead_share", median(harnessShare), len(harnessShare))
	return nil
}

// executeSplit estimates, per sim, which phase the traced sessions' execute
// time went to: the sims' own work counts times the kernel rates above. It is
// an estimate from outside — the remainder is reported, not hidden.
func (rp *replay) executeSplit(traced []repeatRun) {
	k := rp.rates
	docJSON := float64(len(rp.raw)) / float64(len(rp.docs))
	rp.res.ExecuteSplit = map[string]map[string]float64{}
	for i, sm := range sims {
		var total, scanned, leafScans, returned, aggregated, output, zoneChecks float64
		for _, rep := range traced {
			for _, s := range rep.sessions {
				e := s.engines[i]
				total += e.executeSeconds()
				for j, q := range e.queries {
					src := s.queries[j]
					scanned += float64(q.stats.Scanned)
					leafScans += float64(q.stats.Scanned) * float64(len(query.Leaves(src.Filter)))
					output += float64(q.stats.OutputBytes)
					if src.Agg != nil {
						aggregated += float64(q.stats.Matched)
					} else {
						returned += float64(q.stats.Returned)
					}
					zoneChecks += float64(k.shards)
				}
			}
		}
		split := map[string]float64{
			"aggregate": aggregated * k.aggPerDoc,
			"serialise": output * k.serialisePerByte,
		}
		switch sm.key {
		case "jq": // re-parses its input per query; no zones
			split["parse"] = scanned * docJSON * k.parsePerByte
			split["eval"] = scanned * k.evalPerDoc
		case "joda": // parsed documents stay in memory
			split["zone_check"] = zoneChecks * k.prunePerShard
			split["eval"] = scanned * k.evalPerDoc
		case "mongo": // inflates blocks, walks raw BSON per leaf, decodes what it returns
			split["zone_check"] = zoneChecks * k.prunePerShard
			split["decode"] = scanned*k.lzDecompressPerDoc + returned*k.bsonDecodePerDoc
			split["eval"] = leafScans * k.lookupPerDoc
		case "pg": // detoasts the row per leaf, and decodes what it returns
			split["zone_check"] = zoneChecks * k.prunePerShard
			split["decode"] = (leafScans+returned)*k.detoastPerDoc + returned*k.jsonbDecodeDoc
			split["eval"] = leafScans * k.jsonbLookupPerDoc
		}
		rest := 1.0
		for phase, sec := range split {
			split[phase] = ratio(sec, total)
			rest -= split[phase]
		}
		split["unattributed_share"] = rest
		rp.res.ExecuteSplit[sm.layer] = split
	}
}

// processMetrics records the traced run's garbage-collector totals.
func processMetrics(res *runResult) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("process.gc_count", float64(ms.NumGC), 1)
	res.set("process.gc_pause_ms", float64(ms.PauseTotalNs)/1e6, int(ms.NumGC))
	res.set("process.alloc_mb", float64(ms.TotalAlloc)/1e6, 1)
}
