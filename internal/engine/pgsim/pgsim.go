// Package pgsim is the PostgreSQL stand-in: each dataset is a table with a
// single JSONB column. Import converts every document into the JSONB-like
// binary format (sorted keys, offset indexes) via a generic parse — like
// PostgreSQL's json input path — and TOAST-compresses rows above a
// threshold, which makes import markedly more expensive than evaluation
// (the behaviour Fig. 10 of the paper highlights). Query evaluation is
// single-threaded: every leaf of the filter detoasts the row — PostgreSQL
// detoasts per jsonb function call — and then navigates the binary form
// with key binary search. On large deeply nested Twitter documents the
// repeated per-leaf detoasting of individually compressed rows dominates,
// while small NoBench rows stay below the TOAST threshold and evaluate
// fast: the two halves of the paper's MongoDB/PostgreSQL crossover.
//
// Strings containing U+0000 cannot be converted to JSONB; the import fails
// exactly like PostgreSQL's did on the paper's Reddit dataset (Table III).
package pgsim

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/scan"
	"github.com/joda-explore/betze/internal/jsonblite"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/lz"
	"github.com/joda-explore/betze/internal/query"
	"github.com/joda-explore/betze/internal/shard"
)

// DefaultToastThreshold mirrors PostgreSQL's ~2 KB TOAST threshold.
const DefaultToastThreshold = 2000

// Options configures the engine.
type Options struct {
	// ToastThreshold is the row size above which values are compressed;
	// 0 means DefaultToastThreshold.
	ToastThreshold int
}

// Engine implements engine.Engine.
type Engine struct {
	opts Options
	cat  *engine.Catalog[*table]
}

type table struct {
	rows []row
	// shards are BRIN-style block ranges: each covers rows[start:end]. In a
	// zoned table each carries a zone map summarising those rows, so a scan
	// can rule out a whole range without detoasting a single row in it.
	shards []rowShard
	zoned  bool // the shards carry zone maps; see newTableBuilder
}

type rowShard struct {
	start, end int
	zone       *shard.ZoneMap // nil in a stored result
}

type row struct {
	data       []byte
	compressed bool
}

// tableBuilder accumulates encoded rows and seals a row shard every
// shard.DefaultSize rows. A zoned builder folds each row's document into the
// pending shard's zone map as it goes.
type tableBuilder struct {
	tbl   *table
	zones *shard.ZoneBuilder // nil unless the table is zoned
	start int
}

// newTableBuilder starts a table. Only an import asks for zone maps: a
// stored result is scanned at most a handful of times, so summarising it
// would cost more than it could ever skip.
func newTableBuilder(zoned bool) *tableBuilder {
	b := &tableBuilder{tbl: &table{zoned: zoned}}
	if zoned {
		b.zones = shard.NewZoneBuilder()
	}
	return b
}

// add appends row r, whose document is doc.
func (b *tableBuilder) add(doc jsonval.Value, r row) {
	b.tbl.rows = append(b.tbl.rows, r)
	if b.zones != nil {
		b.zones.Add(doc)
	}
	if len(b.tbl.rows)-b.start >= shard.DefaultSize {
		b.seal()
	}
}

func (b *tableBuilder) seal() {
	if len(b.tbl.rows) == b.start {
		return
	}
	sh := rowShard{start: b.start, end: len(b.tbl.rows)}
	if b.zones != nil {
		sh.zone = b.zones.Finish()
	}
	b.tbl.shards = append(b.tbl.shards, sh)
	b.start = len(b.tbl.rows)
}

func (b *tableBuilder) finish() *table {
	b.seal()
	return b.tbl
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	if opts.ToastThreshold <= 0 {
		opts.ToastThreshold = DefaultToastThreshold
	}
	return &Engine{opts: opts, cat: engine.NewCatalog[*table]("pgsim")}
}

// Name implements engine.Engine.
func (*Engine) Name() string { return "PostgreSQL" }

func (e *Engine) encodeRow(doc jsonval.Value) (row, error) {
	data, err := jsonblite.Encode(nil, doc)
	if err != nil {
		return row{}, err
	}
	if len(data) <= e.opts.ToastThreshold {
		return row{data: data}, nil
	}
	return row{data: lz.Compress(nil, data), compressed: true}, nil
}

// open detoasts the row: a fresh decompression per call, as PostgreSQL's
// pglz pays per jsonb function invocation. The detoasted bytes live in
// *scratch, which open reuses and grows; they are valid until the next open
// with the same scratch.
func (r row) open(scratch *[]byte) ([]byte, error) {
	if !r.compressed {
		return r.data, nil
	}
	data, err := lz.Decompress((*scratch)[:0], r.data)
	if err != nil {
		return nil, fmt.Errorf("pgsim: detoasting row: %w", err)
	}
	*scratch = data
	return data, nil
}

// decode detoasts the row and rebuilds its value tree.
func (r row) decode(scratch *[]byte) (jsonval.Value, error) {
	data, err := r.open(scratch)
	if err != nil {
		return jsonval.Value{}, err
	}
	doc, err := jsonblite.Decode(data)
	if err != nil {
		return jsonval.Value{}, fmt.Errorf("pgsim: decoding row: %w", err)
	}
	return doc, nil
}

// matcher compiles the per-query row test. Each evaluated leaf detoasts the
// row anew — PostgreSQL detoasts per jsonb function call, so a composed
// BETZE predicate chain pays the decompression repeatedly on TOASTed rows —
// and then resolves its path with binary search.
func matcher(p query.Predicate, scratch *[]byte) query.Matcher[row] {
	return query.CompileLookup(p, func(r row, steps []string) (jsonblite.Raw, bool, error) {
		data, err := r.open(scratch)
		if err != nil {
			return jsonblite.Raw{}, false, err
		}
		return jsonblite.LookupSteps(data, steps)
	}, func(r row) (jsonval.Value, error) { return r.decode(scratch) })
}

// ImportFile implements engine.Engine. Like PostgreSQL's json input, every
// document is first parsed into a generic value tree and then converted to
// the binary JSONB form; this two-stage conversion is what makes the import
// "take multiple times longer than the evaluation of the whole session"
// (the paper's Fig. 10 discussion). A single offending document aborts the
// whole COPY, as in PostgreSQL.
func (e *Engine) ImportFile(ctx context.Context, name, path string) (stats engine.ImportStats, err error) {
	start := time.Now()
	defer func() { engine.ObserveImport(ctx, e.Name(), name, stats, err) }()
	f, err := os.Open(path)
	if err != nil {
		return engine.ImportStats{}, fmt.Errorf("pgsim: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return engine.ImportStats{}, fmt.Errorf("pgsim: %w", err)
	}
	dec := json.NewDecoder(bufio.NewReaderSize(f, 256*1024))
	dec.UseNumber() // numerics stay exact, as PostgreSQL's numeric does
	tb := newTableBuilder(true)
	var docs int64
	for {
		if err := engine.Cancelled(ctx, docs); err != nil {
			return engine.ImportStats{}, err
		}
		var generic any
		if err := dec.Decode(&generic); err == io.EOF {
			break
		} else if err != nil {
			return engine.ImportStats{}, fmt.Errorf("pgsim: importing %s (row %d): %w", path, docs+1, err)
		}
		doc, err := fromGeneric(generic)
		if err != nil {
			return engine.ImportStats{}, fmt.Errorf("pgsim: importing %s (row %d): %w", path, docs+1, err)
		}
		r, err := e.encodeRow(doc)
		if err != nil {
			return engine.ImportStats{}, fmt.Errorf("pgsim: importing %s (row %d): %w", path, docs+1, err)
		}
		tb.add(doc, r)
		docs++
	}
	tbl := tb.finish()
	e.cat.Import(name, tbl)
	var stored int64
	for _, r := range tbl.rows {
		stored += int64(len(r.data))
	}
	return engine.ImportStats{Docs: docs, Bytes: info.Size(), StoredBytes: stored, Duration: time.Since(start)}, nil
}

// fromGeneric converts an encoding/json generic tree into the typed value
// model, keeping the int/float distinction exact via json.Number.
func fromGeneric(v any) (jsonval.Value, error) {
	switch t := v.(type) {
	case nil:
		return jsonval.NullValue(), nil
	case bool:
		return jsonval.BoolValue(t), nil
	case string:
		return jsonval.StringValue(t), nil
	case json.Number:
		s := t.String()
		if !strings.ContainsAny(s, ".eE") {
			if n, err := t.Int64(); err == nil {
				return jsonval.IntValue(n), nil
			}
		}
		f, err := t.Float64()
		if err != nil {
			return jsonval.Value{}, fmt.Errorf("invalid number %q: %w", s, err)
		}
		return jsonval.FloatValue(f), nil
	case []any:
		elems := make([]jsonval.Value, len(t))
		for i, e := range t {
			ev, err := fromGeneric(e)
			if err != nil {
				return jsonval.Value{}, err
			}
			elems[i] = ev
		}
		return jsonval.ArrayValue(elems...), nil
	case map[string]any:
		members := make([]jsonval.Member, 0, len(t))
		for k, e := range t {
			ev, err := fromGeneric(e)
			if err != nil {
				return jsonval.Value{}, err
			}
			members = append(members, jsonval.Member{Key: k, Value: ev})
		}
		return jsonval.ObjectValue(members...), nil
	default:
		return jsonval.Value{}, fmt.Errorf("unsupported generic value %T", v)
	}
}

// ImportValues loads an in-memory document slice as a table.
func (e *Engine) ImportValues(name string, docs []jsonval.Value) error {
	tb := newTableBuilder(true)
	for i, d := range docs {
		r, err := e.encodeRow(d)
		if err != nil {
			return fmt.Errorf("pgsim: importing %s (row %d): %w", name, i+1, err)
		}
		tb.add(d, r)
	}
	e.cat.Import(name, tb.finish())
	return nil
}

// Execute implements engine.Engine: a sequential scan that evaluates the
// filter per row with one detoast per evaluated leaf (the jsonb
// function-call behaviour) and binary-searched path lookups.
func (e *Engine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (stats engine.ExecStats, err error) {
	if err := q.Validate(); err != nil {
		return engine.ExecStats{}, fmt.Errorf("pgsim: %w", err)
	}
	start := time.Now()
	defer func() { engine.ObserveExec(ctx, e.Name(), q, stats, err) }()
	tbl, err := e.cat.Get(q.Base)
	if err != nil {
		return engine.ExecStats{}, err
	}

	var agg *query.Aggregator
	if q.Agg != nil {
		agg = query.NewAggregator(*q.Agg)
	}
	var storeTB *tableBuilder
	if q.Store != "" {
		storeTB = newTableBuilder(false)
	}
	// scratch and outBuf belong to this call: concurrent Executes on one
	// engine share nothing mutable but the catalog.
	var scratch, outBuf []byte
	// PostgreSQL's modelled execution is single-threaded: the walk runs on
	// the calling goroutine, one BRIN-style row range per step, and in a zoned
	// table a range whose zone map rules out every row is skipped without
	// detoasting any of it.
	filter := matcher(q.Filter, &scratch)
	var zone func(i int) (query.Zone, int)
	if tbl.zoned {
		zone = func(i int) (query.Zone, int) {
			sh := tbl.shards[i]
			return sh.zone, sh.end - sh.start
		}
	}
	stats.Skipped, err = scan.Shards(ctx, scan.Options{Engine: e.Name()}, len(tbl.shards), filter.Prune, zone,
		func(_, i int) (int64, error) {
			sh := tbl.shards[i]
			var walked int64
			for ri := sh.start; ri < sh.end; ri++ {
				r := tbl.rows[ri]
				stats.Scanned++
				walked++
				ok, merr := filter.Match(r)
				if merr != nil {
					return walked, merr
				}
				if !ok {
					continue
				}
				stats.Matched++
				// Producing output (or aggregating) accesses the whole value:
				// one more detoast plus a decode, as returning jsonb does.
				doc, derr := r.decode(&scratch)
				if derr != nil {
					return walked, derr
				}
				if q.Transform != nil {
					doc = q.Transform.Apply(doc)
					// The stored/output value is rebuilt, as jsonb_set does.
					r, derr = e.encodeRow(doc)
					if derr != nil {
						return walked, fmt.Errorf("pgsim: transforming row: %w", derr)
					}
				}
				if eerr := e.emit(q, doc, r, storeTB, agg, sink, &outBuf, &stats); eerr != nil {
					return walked, eerr
				}
			}
			return walked, nil
		})
	if err != nil {
		return stats, err
	}
	if agg != nil {
		if err := engine.RunAggregation(agg, sink, &stats); err != nil {
			return stats, err
		}
	}
	if storeTB != nil {
		e.cat.Store(q.Store, storeTB.finish())
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// emit handles one matching row: aggregate, store, or output.
func (e *Engine) emit(q *query.Query, doc jsonval.Value, r row, storeTB *tableBuilder, agg *query.Aggregator, sink io.Writer, outBuf *[]byte, stats *engine.ExecStats) error {
	if agg != nil {
		agg.Add(doc)
		return nil
	}
	if storeTB != nil {
		storeTB.add(doc, r)
	}
	n, err := engine.WriteDoc(sink, outBuf, doc)
	if err != nil {
		return err
	}
	stats.Returned++
	stats.OutputBytes += n
	return nil
}

// Reset implements engine.Engine.
func (e *Engine) Reset() error {
	e.cat.Reset()
	return nil
}

// Close implements engine.Engine.
func (e *Engine) Close() error { return e.Reset() }
