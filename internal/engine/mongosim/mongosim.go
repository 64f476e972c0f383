// Package mongosim is the MongoDB stand-in: documents are converted to a
// BSON-like binary format at import and stored in flate-compressed blocks,
// mirroring WiredTiger's default block compression. Query evaluation is
// single-threaded and navigates the binary documents lazily along the
// queried paths without materialising them — the access pattern that keeps
// MongoDB competitive on large nested documents (Twitter) while the per-
// document block-decompression overhead dominates on many small shallow
// ones (NoBench), reproducing the paper's MongoDB/PostgreSQL crossover.
//
// What a query pays for is that modelled work — one inflate per block, one
// path walk per evaluated leaf, a decode only where a value tree
// is needed (transform, aggregated attributes). The read path itself
// allocates nothing per document: blocks inflate into one buffer per
// Execute, keys are matched in place, the filter is compiled once, and
// returned documents stream from BSON to JSON text. A stored result copies
// each untransformed match's BSON bytes, as a $out writes BSON.
package mongosim

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/joda-explore/betze/internal/bsonlite"
	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/scan"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/lz"
	"github.com/joda-explore/betze/internal/query"
)

// DefaultBlockSize is the uncompressed target size of a storage block.
const DefaultBlockSize = 64 * 1024

// Options configures the engine.
type Options struct {
	// BlockSize is the uncompressed block target in bytes; 0 means
	// DefaultBlockSize.
	BlockSize int
	// DisableCompression stores blocks uncompressed (ablation knob).
	DisableCompression bool
}

// Engine implements engine.Engine.
type Engine struct {
	opts Options
	cat  *engine.Catalog[*collection]
}

// collection stores BSON documents in compressed blocks.
type collection struct {
	blocks []block
	docs   int64
}

type block struct {
	data       []byte // compressed unless the engine disables compression
	compressed bool
	docCount   int
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	return &Engine{opts: opts, cat: engine.NewCatalog[*collection]("mongosim")}
}

// Name implements engine.Engine.
func (*Engine) Name() string { return "MongoDB" }

// blockWriter accumulates BSON documents into a new collection and seals
// blocks at the target size.
type blockWriter struct {
	opts Options
	coll *collection
	buf  []byte
	n    int
}

func newBlockWriter(opts Options) *blockWriter {
	return &blockWriter{opts: opts, coll: &collection{}}
}

// add encodes doc into the pending block.
func (w *blockWriter) add(doc jsonval.Value) {
	w.buf = bsonlite.Encode(w.buf, doc)
	w.next()
}

// addEncoded copies an encoded document into the pending block as it is.
func (w *blockWriter) addEncoded(doc []byte) {
	w.buf = append(w.buf, doc...)
	w.next()
}

// next counts the document just appended and seals a full block.
func (w *blockWriter) next() {
	w.n++
	w.coll.docs++
	if len(w.buf) >= w.opts.BlockSize {
		w.seal()
	}
}

func (w *blockWriter) seal() {
	if w.n == 0 {
		return
	}
	b := block{docCount: w.n}
	if w.opts.DisableCompression {
		b.data = append([]byte(nil), w.buf...)
	} else {
		b.data = lz.Compress(nil, w.buf)
		b.compressed = true
	}
	w.coll.blocks = append(w.coll.blocks, b)
	w.buf = w.buf[:0]
	w.n = 0
}

// finish seals the pending block and returns the collection.
func (w *blockWriter) finish() *collection {
	w.seal()
	return w.coll
}

// ImportFile implements engine.Engine.
func (e *Engine) ImportFile(ctx context.Context, name, path string) (engine.ImportStats, error) {
	start := time.Now()
	w := newBlockWriter(e.opts)
	docs, rawBytes, err := engine.ReadFile(ctx, path, func(doc jsonval.Value) error {
		w.add(doc)
		return nil
	})
	if err != nil {
		err = fmt.Errorf("mongosim: importing %s: %w", path, err)
		engine.ObserveImport(ctx, e.Name(), name, engine.ImportStats{}, err)
		return engine.ImportStats{}, err
	}
	coll := w.finish()
	e.cat.Import(name, coll)
	var stored int64
	for _, b := range coll.blocks {
		stored += int64(len(b.data))
	}
	stats := engine.ImportStats{Docs: docs, Bytes: rawBytes, StoredBytes: stored, Duration: time.Since(start)}
	engine.ObserveImport(ctx, e.Name(), name, stats, nil)
	return stats, nil
}

// ImportValues loads an in-memory document slice as a collection.
func (e *Engine) ImportValues(name string, docs []jsonval.Value) {
	w := newBlockWriter(e.opts)
	for _, d := range docs {
		w.add(d)
	}
	e.cat.Import(name, w.finish())
}

// open restores a block's BSON byte stream, decompressing per access as
// the storage engine does per block read. The inflated bytes live in
// *scratch, which open reuses and grows; they are valid until the next open
// with the same scratch.
func (b block) open(scratch *[]byte) ([]byte, error) {
	if !b.compressed {
		return b.data, nil
	}
	raw, err := lz.Decompress((*scratch)[:0], b.data)
	if err != nil {
		return nil, err
	}
	*scratch = raw
	return raw, nil
}

// Execute implements engine.Engine: a single-threaded block scan with lazy
// per-leaf path navigation.
func (e *Engine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (stats engine.ExecStats, err error) {
	if err := q.Validate(); err != nil {
		return engine.ExecStats{}, fmt.Errorf("mongosim: %w", err)
	}
	start := time.Now()
	defer func() { engine.ObserveExec(ctx, e.Name(), q, stats, err) }()
	coll, err := e.cat.Get(q.Base)
	if err != nil {
		return engine.ExecStats{}, err
	}

	var agg *query.Aggregator
	if q.Agg != nil {
		agg = query.NewAggregator(*q.Agg)
	}
	var storeWriter *blockWriter
	if q.Store != "" {
		storeWriter = newBlockWriter(e.opts)
	}

	// MongoDB's modelled execution is single-threaded: the walk runs on the
	// calling goroutine, one block per step. Every block is inflated, as a
	// collection scan reads every WiredTiger page, and every document
	// evaluates with one lazy walk over raw BSON per evaluated leaf.
	filter := matcher(q.Filter)
	// scratch and outBuf belong to this call: concurrent Executes on one
	// engine share nothing mutable but the catalog.
	var scratch, outBuf []byte
	err = scan.Shards(ctx, scan.Options{Engine: e.Name()}, len(coll.blocks),
		func(_, i int) (int64, error) {
			raw, oerr := coll.blocks[i].open(&scratch)
			if oerr != nil {
				return 0, fmt.Errorf("mongosim: opening block: %w", oerr)
			}
			var walked int64
			off := 0
			for d := 0; d < coll.blocks[i].docCount; d++ {
				docLen, derr := docLength(raw[off:])
				if derr != nil {
					return walked, derr
				}
				doc := raw[off : off+docLen]
				off += docLen
				stats.Scanned++
				walked++
				ok, merr := filter.Match(doc)
				if merr != nil {
					return walked, merr
				}
				if !ok {
					continue
				}
				stats.Matched++
				switch {
				case agg != nil && q.Transform == nil:
					// The $group projection path: only the referenced
					// attributes are materialised.
					if aerr := query.AddLookup(agg, doc, bsonlite.LookupSteps); aerr != nil {
						return walked, aerr
					}
				case agg != nil:
					// Transform stages force materialisation, as $set/$unset
					// pipelines do.
					v, derr := decode(doc)
					if derr != nil {
						return walked, derr
					}
					agg.Add(q.ApplyTransform(v))
				default:
					n, werr := emit(q, doc, storeWriter, sink, &outBuf)
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
	if storeWriter != nil {
		e.cat.Store(q.Store, storeWriter.finish())
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// matcher compiles the per-query document test: lazy per-leaf walks over
// the raw BSON.
func matcher(p query.Predicate) query.Matcher[[]byte] {
	return query.CompileLookup(p, bsonlite.LookupSteps, decode)
}

// emit returns one matching document: to the sink, and to the store when the
// query has one. Without a transform no value tree is built: the cursor
// streams BSON to JSON text and a store copies the document's bytes. A
// transform decodes, applies and, for a store, encodes the result.
func emit(q *query.Query, doc []byte, store *blockWriter, sink io.Writer, outBuf *[]byte) (int64, error) {
	if q.Transform == nil {
		out, err := bsonlite.AppendJSON((*outBuf)[:0], doc)
		if err != nil {
			return 0, fmt.Errorf("mongosim: decoding document: %w", err)
		}
		if store != nil {
			store.addEncoded(doc)
		}
		*outBuf = append(out, '\n')
		n, err := sink.Write(*outBuf)
		return int64(n), err
	}
	v, err := decode(doc)
	if err != nil {
		return 0, err
	}
	v = q.Transform.Apply(v)
	if store != nil {
		store.add(v)
	}
	return engine.WriteDoc(sink, outBuf, v)
}

// decode materialises a full document (transform and external leaf types).
func decode(doc []byte) (jsonval.Value, error) {
	v, err := bsonlite.Decode(doc)
	if err != nil {
		return jsonval.Value{}, fmt.Errorf("mongosim: decoding document: %w", err)
	}
	return v, nil
}

// docLength reads the header length of the BSON document at the front of
// raw.
func docLength(raw []byte) (int, error) {
	if len(raw) < 5 {
		return 0, fmt.Errorf("mongosim: truncated document header")
	}
	n := int(uint32(raw[0]) | uint32(raw[1])<<8 | uint32(raw[2])<<16 | uint32(raw[3])<<24)
	if n < 5 || n > len(raw) {
		return 0, fmt.Errorf("mongosim: document length %d out of bounds", n)
	}
	return n, nil
}

// Reset implements engine.Engine.
func (e *Engine) Reset() error {
	e.cat.Reset()
	return nil
}

// Close implements engine.Engine.
func (e *Engine) Close() error { return e.Reset() }
