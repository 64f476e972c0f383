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
// What a query pays for is that modelled work — one detoast per evaluated
// leaf, and one more per returned or aggregated row, whose JSONB is then
// read in full to print it or probed for the aggregated and grouping
// attributes. A value tree is built only for a transform, which then
// re-encodes the row as jsonb_set does. Nothing else costs per row: rows
// are encoded into one reused buffer and land in shared chunks, detoasting
// reuses one buffer per Execute, and returned rows are printed straight
// from their bytes. A stored result shares its untransformed rows with the
// base table.
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
	// cat maps a dataset name to its table: the JSONB rows in insertion
	// order.
	cat *engine.Catalog[[]row]
}

type row struct {
	data       []byte
	compressed bool
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	if opts.ToastThreshold <= 0 {
		opts.ToastThreshold = DefaultToastThreshold
	}
	return &Engine{opts: opts, cat: engine.NewCatalog[[]row]("pgsim")}
}

// Name implements engine.Engine.
func (*Engine) Name() string { return "PostgreSQL" }

// Rows land back to back in chunks that start small and double up to
// maxChunk, so a table of small rows costs one allocation per chunk, and a
// derived table of a few rows does not hold a large one.
const (
	minChunk = 4 << 10
	maxChunk = 64 << 10
)

// rowWriter builds a table. Every row is encoded into one reused buffer;
// its stored bytes — plain, or TOAST-compressed above the threshold — are
// then appended to the current chunk.
type rowWriter struct {
	threshold int
	plain     []byte // the last encoded row
	chunk     []byte // where rows land; never grown past its capacity
	rows      []row
}

func (e *Engine) newRowWriter(rows int) *rowWriter {
	return &rowWriter{threshold: e.opts.ToastThreshold, rows: make([]row, 0, rows)}
}

// encode returns doc's JSONB bytes, valid until the next encode.
func (w *rowWriter) encode(doc jsonval.Value) ([]byte, error) {
	plain, err := jsonblite.Encode(w.plain[:0], doc)
	if err != nil {
		return nil, err
	}
	w.plain = plain
	return plain, nil
}

// add encodes doc and stores it as the table's next row.
func (w *rowWriter) add(doc jsonval.Value) error {
	plain, err := w.encode(doc)
	if err != nil {
		return err
	}
	w.store(plain)
	return nil
}

// store copies encoded bytes into the table as its next row, compressing
// them when they exceed the TOAST threshold.
func (w *rowWriter) store(plain []byte) {
	toast := len(plain) > w.threshold
	need := len(plain)
	if toast {
		// lz output exceeds its n input bytes by at most n/20+11: a length
		// header, and up to three more header bytes per literal run longer
		// than 60 bytes.
		need += need/16 + 16
	}
	if cap(w.chunk)-len(w.chunk) < need {
		w.chunk = make([]byte, 0, max(need, min(2*cap(w.chunk), maxChunk), minChunk))
	}
	start := len(w.chunk)
	if toast {
		w.chunk = lz.Compress(w.chunk, plain)
	} else {
		w.chunk = append(w.chunk, plain...)
	}
	w.rows = append(w.rows, row{data: w.chunk[start:len(w.chunk):len(w.chunk)], compressed: toast})
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

// decode detoasts the row and rebuilds its value tree: for a transform, and
// for a leaf type the compiled filter cannot resolve in place.
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
	w := e.newRowWriter(0)
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
		if err := w.add(doc); err != nil {
			return engine.ImportStats{}, fmt.Errorf("pgsim: importing %s (row %d): %w", path, docs+1, err)
		}
		docs++
	}
	e.cat.Import(name, w.rows)
	var stored int64
	for _, r := range w.rows {
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
	w := e.newRowWriter(len(docs))
	for i, d := range docs {
		if err := w.add(d); err != nil {
			return fmt.Errorf("pgsim: importing %s (row %d): %w", name, i+1, err)
		}
	}
	e.cat.Import(name, w.rows)
	return nil
}

// Execute implements engine.Engine: a sequential scan that evaluates the
// filter per row with one detoast per evaluated leaf (the jsonb
// function-call behaviour) and binary-searched path lookups. A matching row
// is detoasted once more: a returned row is printed from its JSONB bytes and
// an aggregated one reads only the aggregated and grouping attributes. Only
// a transform rebuilds the row's value tree, and then its JSONB, as
// jsonb_set does. A stored row that was not transformed is shared with the
// base table, as its bytes are immutable.
func (e *Engine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (stats engine.ExecStats, err error) {
	if err := q.Validate(); err != nil {
		return engine.ExecStats{}, fmt.Errorf("pgsim: %w", err)
	}
	start := time.Now()
	defer func() { engine.ObserveExec(ctx, e.Name(), q, stats, err) }()
	rows, err := e.cat.Get(q.Base)
	if err != nil {
		return engine.ExecStats{}, err
	}

	var agg *query.Aggregator
	if q.Agg != nil {
		agg = query.NewAggregator(*q.Agg)
	}
	// The writer, scratch and outBuf belong to this call: concurrent
	// Executes on one engine share nothing mutable but the catalog.
	w := e.newRowWriter(0)
	var scratch, outBuf []byte
	// PostgreSQL's modelled execution is a single-threaded sequential scan:
	// the walk runs on the calling goroutine over every row, shard.DefaultSize
	// rows per step.
	filter := matcher(q.Filter, &scratch)
	err = scan.Shards(ctx, scan.Options{Engine: e.Name()}, (len(rows)+shard.DefaultSize-1)/shard.DefaultSize,
		func(_, i int) (int64, error) {
			var walked int64
			for _, r := range rows[i*shard.DefaultSize : min((i+1)*shard.DefaultSize, len(rows))] {
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
				switch {
				case agg != nil && q.Transform == nil:
					// One detoast, then only the referenced attributes are
					// materialised.
					data, oerr := r.open(&scratch)
					if oerr != nil {
						return walked, oerr
					}
					if aerr := query.AddLookup(agg, data, jsonblite.LookupSteps); aerr != nil {
						return walked, aerr
					}
				case agg != nil:
					doc, _, terr := transform(q, r, w, &scratch)
					if terr != nil {
						return walked, terr
					}
					agg.Add(doc)
				default:
					n, werr := emit(q, r, w, sink, &scratch, &outBuf)
					if werr != nil {
						return walked, werr
					}
					stats.Returned++
					stats.OutputBytes += n
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
	if q.Store != "" {
		e.cat.Store(q.Store, w.rows)
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// transform rebuilds the row's value tree, applies the query's transform and
// encodes the result, as jsonb_set builds a new jsonb value. The encoded
// bytes are valid until w's next encode.
func transform(q *query.Query, r row, w *rowWriter, scratch *[]byte) (jsonval.Value, []byte, error) {
	doc, err := r.decode(scratch)
	if err != nil {
		return jsonval.Value{}, nil, err
	}
	doc = q.Transform.Apply(doc)
	plain, err := w.encode(doc)
	if err != nil {
		return jsonval.Value{}, nil, fmt.Errorf("pgsim: transforming row: %w", err)
	}
	return doc, plain, nil
}

// emit returns one matching row: to the sink, and to the store when the
// query has one. Without a transform the detoasted bytes are printed as
// they are, and a store shares the row.
func emit(q *query.Query, r row, w *rowWriter, sink io.Writer, scratch, outBuf *[]byte) (int64, error) {
	if q.Transform != nil {
		doc, plain, err := transform(q, r, w, scratch)
		if err != nil {
			return 0, err
		}
		if q.Store != "" {
			w.store(plain)
		}
		return engine.WriteDoc(sink, outBuf, doc)
	}
	data, err := r.open(scratch)
	if err != nil {
		return 0, err
	}
	out, err := jsonblite.AppendJSON((*outBuf)[:0], data)
	if err != nil {
		return 0, fmt.Errorf("pgsim: decoding row: %w", err)
	}
	if q.Store != "" {
		w.rows = append(w.rows, r)
	}
	*outBuf = append(out, '\n')
	n, err := sink.Write(*outBuf)
	return int64(n), err
}

// Reset implements engine.Engine.
func (e *Engine) Reset() error {
	e.cat.Reset()
	return nil
}

// Close implements engine.Engine.
func (e *Engine) Close() error { return e.Reset() }
