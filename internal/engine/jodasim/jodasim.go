// Package jodasim is the JODA stand-in: a vertically scalable in-memory
// JSON processor. Imported datasets are parsed once and kept as value trees;
// queries run as parallel scans over a configurable worker pool, and every
// query result is cached per composed predicate so follow-up queries of an
// exploration session start from the nearest cached ancestor — the
// delta-tree behaviour the paper credits for JODA's iterative-workload
// performance. An optional eviction mode drops parsed data after each query
// and re-parses from the imported bytes, modelling a memory-constrained
// deployment (Table II's "JODA memory evicted" row). JODA keeps no zone
// maps, and neither does jodasim: every scan evaluates every document of the
// dataset or cached result it starts from.
package jodasim

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/scan"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
	"github.com/joda-explore/betze/internal/shard"
)

// Options configures the engine.
type Options struct {
	// Threads is the scan worker count; 0 means runtime.NumCPU().
	Threads int
	// Evict drops parsed documents after every query, forcing a re-parse
	// from the imported raw bytes on the next one.
	Evict bool
	// DisableCache turns off per-predicate result caching (an ablation
	// knob; real JODA caches).
	DisableCache bool
}

// Engine implements engine.Engine and core.Backend.
type Engine struct {
	opts Options
	cat  *engine.Catalog[*dataset]

	mu       sync.Mutex // guards every dataset's store and cache, and cacheHit
	cacheHit int64
}

// dataset is one named dataset, its documents cut into zoneless shards (the
// unit a scan worker claims). A base dataset also holds the raw bytes
// eviction mode re-parses, and the results of filtered queries on it keyed
// by appendKey. A derived dataset has no cache: it is scanned at most a
// handful of times, so cached results would not pay for themselves.
type dataset struct {
	store *shard.Store // nil while evicted
	raw   []byte
	cache map[string][]jsonval.Value
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	if opts.Threads <= 0 {
		opts.Threads = runtime.NumCPU()
	}
	return &Engine{opts: opts, cat: engine.NewCatalog[*dataset]("jodasim")}
}

// Name implements engine.Engine.
func (e *Engine) Name() string {
	if e.opts.Evict {
		return "JODA (evicted)"
	}
	return "JODA"
}

// SetThreads adjusts the worker-pool size (the Fig. 9 sweep).
func (e *Engine) SetThreads(n int) {
	if n > 0 {
		e.opts.Threads = n
	}
}

// CacheHits reports how many queries were served from a cached ancestor.
func (e *Engine) CacheHits() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cacheHit
}

// ImportFile implements engine.Engine: parse once, cut the value trees into
// shards without zone maps, and keep the raw bytes when eviction mode needs
// them.
func (e *Engine) ImportFile(ctx context.Context, name, path string) (engine.ImportStats, error) {
	start := time.Now()
	var docs []jsonval.Value
	n, bytes, err := engine.ReadFile(ctx, path, func(doc jsonval.Value) error {
		docs = append(docs, doc)
		return nil
	})
	if err != nil {
		err = fmt.Errorf("jodasim: importing %s: %w", path, err)
		engine.ObserveImport(ctx, e.Name(), name, engine.ImportStats{}, err)
		return engine.ImportStats{}, err
	}
	e.ImportValues(name, docs)
	stats := engine.ImportStats{Docs: n, Bytes: bytes, StoredBytes: bytes, Duration: time.Since(start)}
	engine.ObserveImport(ctx, e.Name(), name, stats, nil)
	return stats, nil
}

// ImportValues loads an in-memory document slice as a base dataset.
func (e *Engine) ImportValues(name string, docs []jsonval.Value) {
	ds := &dataset{store: shard.View(docs, shard.DefaultSize), cache: map[string][]jsonval.Value{}}
	if e.opts.Evict {
		for _, d := range docs {
			ds.raw = append(jsonval.AppendJSON(ds.raw, d), '\n')
		}
	}
	e.cat.Import(name, ds)
}

// resolve finds the shards of the query's base dataset together with the
// residual predicate still to evaluate, reusing the deepest cached ancestor
// of the composed predicate chain. cache is the dataset's result cache when
// it was consulted — filtered queries on base datasets only — and key is
// then the filter's cache key; hit reports whether any cached result (full
// or ancestor) served the lookup.
func (e *Engine) resolve(ctx context.Context, baseName string, filter query.Predicate) (st *shard.Store, residual query.Predicate, cache map[string][]jsonval.Value, key string, hit bool, err error) {
	ds, err := e.cat.Get(baseName)
	if err != nil {
		return nil, nil, nil, "", false, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ds.store == nil {
		// Evicted: re-parse the retained bytes.
		docs, err := e.parseAll(ctx, ds.raw)
		if err != nil {
			return nil, nil, nil, "", false, fmt.Errorf("jodasim: re-parsing evicted dataset %s: %w", baseName, err)
		}
		ds.store = shard.View(docs, shard.DefaultSize)
	}
	if filter == nil || ds.cache == nil || e.opts.DisableCache {
		return ds.store, filter, nil, "", false, nil
	}
	// Unwind the AND chain, then render its keys innermost first: in postfix
	// each prefix's key starts the next one's, so one string holds them all
	// and ends[i] is where the key of the prefix with i right operands ends.
	var rights []query.Predicate // outermost first
	pred := filter
	for and, ok := pred.(query.And); ok; and, ok = pred.(query.And) {
		rights, pred = append(rights, and.Right), and.Left
	}
	buf := appendKey(nil, pred)
	ends := []int{len(buf)}
	for i := len(rights) - 1; i >= 0; i-- {
		buf = append(appendKey(buf, rights[i]), '&')
		ends = append(ends, len(buf))
	}
	key = string(buf)
	// Take the deepest cached prefix; the right operands it lacks are the
	// residual, nested as (r1 && (r2 && …)).
	for i := len(ends) - 1; i >= 0; i-- {
		if docs, ok := ds.cache[key[:ends[i]]]; ok {
			e.cacheHit++
			for _, r := range rights[:len(rights)-i] {
				if residual == nil {
					residual = r
				} else {
					residual = query.And{Left: r, Right: residual}
				}
			}
			return shard.View(docs, shard.DefaultSize), residual, ds.cache, key, true, nil
		}
	}
	return ds.store, filter, ds.cache, key, false, nil
}

// appendKey appends p's result-cache key to dst, in postfix so that the keys
// of a left-deep AND chain extend one another: And{L, R} is L's key, R's key,
// '&'. String alone quotes paths without escaping them, so a leaf's key is
// its kind, Go-quoted path and Go-quoted String, which together fix it; an
// external leaf's is its Go type and String, the Predicate contract's
// canonical form.
func appendKey(dst []byte, p query.Predicate) []byte {
	switch n := p.(type) {
	case query.And:
		return append(appendKey(appendKey(dst, n.Left), n.Right), '&')
	case query.Or:
		return append(appendKey(appendKey(dst, n.Left), n.Right), '|')
	}
	if path, ok := query.LeafPath(p); ok {
		dst = strconv.AppendQuote(append(dst, query.LeafKind(p)...), string(path))
	} else {
		dst = fmt.Appendf(dst, "%T", p)
	}
	return strconv.AppendQuote(dst, p.String())
}

// match returns the documents of q's base that pass its filter and how many
// the scan evaluated, and caches them unless eviction mode drops everything
// after each query anyway.
func (e *Engine) match(ctx context.Context, q *query.Query) ([]jsonval.Value, int64, error) {
	st, residual, cache, key, hit, err := e.resolve(ctx, q.Base, q.Filter)
	if err != nil {
		return nil, 0, err
	}
	if cache != nil {
		engine.ObserveCache(ctx, e.Name(), q, hit)
	}
	matched, err := e.scan(ctx, st, residual)
	if err != nil {
		return nil, 0, err
	}
	if cache != nil && !e.opts.Evict {
		e.mu.Lock()
		cache[key] = matched
		e.mu.Unlock()
	}
	return matched, int64(st.Len()), nil
}

// Execute implements engine.Engine with a parallel filter scan.
func (e *Engine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (stats engine.ExecStats, err error) {
	if err := q.Validate(); err != nil {
		return engine.ExecStats{}, fmt.Errorf("jodasim: %w", err)
	}
	start := time.Now()
	defer func() { engine.ObserveExec(ctx, e.Name(), q, stats, err) }()
	matched, scanned, err := e.match(ctx, q)
	if err != nil {
		return engine.ExecStats{}, err
	}
	stats = engine.ExecStats{Scanned: scanned, Matched: int64(len(matched))}
	if q.Transform != nil {
		transformed := make([]jsonval.Value, len(matched))
		for i, d := range matched {
			transformed[i] = q.Transform.Apply(d)
		}
		matched = transformed
	}

	if q.Agg != nil {
		agg := query.NewAggregator(*q.Agg)
		for _, d := range matched {
			agg.Add(d)
		}
		if err := engine.RunAggregation(agg, sink, &stats); err != nil {
			return stats, err
		}
	} else {
		var buf []byte
		for i, d := range matched {
			if err := engine.Cancelled(ctx, int64(i)); err != nil {
				return stats, err
			}
			n, err := engine.WriteDoc(sink, &buf, d)
			if err != nil {
				return stats, err
			}
			stats.Returned++
			stats.OutputBytes += n
		}
	}
	if q.Store != "" {
		e.cat.Store(q.Store, &dataset{store: shard.View(matched, shard.DefaultSize)})
	}
	if e.opts.Evict {
		e.evictAll()
		engine.ObserveEviction(ctx, e.Name())
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// scan filters the store on the shared walk, compiling the predicate once per
// query. Shards have no zone maps, so none is skipped: every shard is
// evaluated through its worker's own Evaluator — per document a generation
// bump and a closure call, nothing shared across workers — and its matches
// stay in the shard's slot, so concatenating the slots is document order.
func (e *Engine) scan(ctx context.Context, st *shard.Store, filter query.Predicate) ([]jsonval.Value, error) {
	if filter == nil {
		return st.Docs(), nil
	}
	compiled := query.Compile(filter)
	evals := make([]*query.Evaluator, e.opts.Threads)
	kept := make([][]jsonval.Value, st.NumShards())
	err := scan.Shards(ctx, e.scanOptions(), st.NumShards(),
		func(w, i int) (int64, error) {
			if evals[w] == nil {
				evals[w] = compiled.Evaluator()
			}
			ev, docs := evals[w], st.Shard(i).Docs
			var out []jsonval.Value
			for j := range docs {
				if ev.EvalAt(&docs[j]) {
					out = append(out, docs[j])
				}
			}
			kept[i] = out
			return int64(len(docs)), nil
		})
	if err != nil {
		return nil, err
	}
	return slices.Concat(kept...), nil
}

func (e *Engine) scanOptions() scan.Options {
	return scan.Options{Workers: e.opts.Threads, Engine: e.Name()}
}

// parseAll re-parses newline-delimited bytes on the shared walk: find the
// document boundaries sequentially, then parse them in parallel, a chunk of
// spans per claim and one Parser per worker (one per document would share no
// slab chunk and no interned key).
func (e *Engine) parseAll(ctx context.Context, raw []byte) ([]jsonval.Value, error) {
	var spans [][2]int
	off := 0
	for off < len(raw) {
		n, err := jsonval.ScanValue(raw[off:], true)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		spans = append(spans, [2]int{off, off + n})
		off += n
	}
	const chunk = scan.DefaultBatch
	docs := make([]jsonval.Value, len(spans))
	parsers := make([]jsonval.Parser, e.opts.Threads)
	err := scan.Shards(ctx, e.scanOptions(), (len(spans)+chunk-1)/chunk,
		func(w, c int) (int64, error) {
			start := c * chunk
			end := min(start+chunk, len(spans))
			for i := start; i < end; i++ {
				doc, err := parsers[w].Parse(raw[spans[i][0]:spans[i][1]])
				if err != nil {
					return int64(i - start), err
				}
				docs[i] = doc
			}
			return int64(end - start), nil
		})
	if err != nil {
		return nil, err
	}
	return docs, nil
}

func (e *Engine) evictAll() {
	bases := e.cat.Bases()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ds := range bases {
		ds.store = nil
	}
}

// CountMatching implements the generator's verification backend
// (core.Backend) on top of the same cached scan machinery.
func (e *Engine) CountMatching(base string, pred query.Predicate) (int64, error) {
	// core.Backend carries no context; match reads ctx only for cancellation,
	// which generation cannot request, and for an obs scope, which it has none.
	matched, _, err := e.match(context.Background(), &query.Query{Base: base, Filter: pred})
	return int64(len(matched)), err
}

// Reset implements engine.Engine: stored datasets and cached results go.
func (e *Engine) Reset() error {
	e.cat.Reset()
	bases := e.cat.Bases()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ds := range bases {
		clear(ds.cache)
	}
	e.cacheHit = 0
	return nil
}

// Close implements engine.Engine.
func (e *Engine) Close() error { return e.Reset() }
