// Package engine defines the interface through which BETZE benchmarks the
// systems under test, plus shared import helpers and statistics types.
//
// The paper evaluates JODA, MongoDB, PostgreSQL and jq through Docker; this
// reproduction replaces the external systems with in-process engines
// (jodasim, mongosim, pgsim, jqsim) that perform the same dominant work —
// parsing, binary conversion, compression, per-document evaluation, result
// serialisation — so that measured times reproduce the paper's shapes on
// real computation rather than calibrated sleeps.
package engine

import (
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// ImportStats describes one dataset import.
type ImportStats struct {
	// Docs is the number of imported documents.
	Docs int64
	// Bytes is the raw input size.
	Bytes int64
	// StoredBytes is the engine's internal representation size.
	StoredBytes int64
	// Duration is the wall time of the import.
	Duration time.Duration
}

// ExecStats describes one query execution.
type ExecStats struct {
	// Scanned is the number of documents evaluated.
	Scanned int64
	// Skipped is the number of documents proven non-matching without
	// evaluation — their whole shard was ruled out by its zone map.
	// Scanned + Skipped is the dataset size a pre-pruning scan walked.
	Skipped int64
	// Matched is the number of documents passing the filter.
	Matched int64
	// Returned is the number of documents written to the sink (result
	// documents for plain queries, aggregate rows for aggregations).
	Returned int64
	// OutputBytes is the serialised result size.
	OutputBytes int64
	// Duration is the wall time of the execution.
	Duration time.Duration
}

// Engine is a system under test. Its datasets follow the rules of Catalog,
// which every engine keeps its names in.
type Engine interface {
	// Name is the display name used in result tables.
	Name() string
	// ImportFile loads a newline-delimited JSON file as the named base
	// dataset, converting it into the engine's storage format. It
	// replaces a base or derived dataset of that name at once, and the
	// import survives Reset.
	ImportFile(ctx context.Context, name, path string) (ImportStats, error)
	// Execute runs one query. Result documents are serialised to sink
	// (pass io.Discard to drop them, the paper's /dev/null setup). A
	// query whose Store is set publishes its result as a derived dataset
	// only once it has succeeded, output included; a failed one leaves
	// the name as it was. A derived dataset shadows a base of the same
	// name. A name that is neither wraps ErrUnknownDataset, and an
	// invalid query (query.Validate) is rejected.
	Execute(ctx context.Context, q *query.Query, sink io.Writer) (ExecStats, error)
	// Reset drops derived datasets and caches but keeps imported base
	// datasets, un-shadowing any a store hid, preparing the engine for
	// another session run. A crash (faultsim) is a Reset.
	Reset() error
	// Close releases derived datasets and whatever the engine created.
	// No call after Close panics.
	Close() error
}

// ErrUnknownDataset is wrapped by engines when a query references a dataset
// that was never imported or stored.
var ErrUnknownDataset = fmt.Errorf("engine: unknown dataset")

// checkEvery is how many documents an engine processes between context
// cancellation checks.
const checkEvery = 2048

// Cancelled polls ctx every checkEvery iterations; i is the loop counter.
func Cancelled(ctx context.Context, i int64) error {
	if i%checkEvery == 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
	}
	return nil
}

// ReadFile streams the documents of a newline-delimited JSON file.
func ReadFile(ctx context.Context, path string, fn func(doc jsonval.Value) error) (docs, bytes int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	dec := jsonval.NewDecoder(f)
	var n int64
	for {
		if err := Cancelled(ctx, n); err != nil {
			return n, info.Size(), err
		}
		doc, err := dec.Decode()
		if err == io.EOF {
			return n, info.Size(), nil
		}
		if err != nil {
			return n, info.Size(), err
		}
		if err := fn(doc); err != nil {
			return n, info.Size(), err
		}
		n++
	}
}

// WriteDoc serialises one result document to the sink and returns the number
// of bytes written.
func WriteDoc(sink io.Writer, buf *[]byte, doc jsonval.Value) (int64, error) {
	*buf = jsonval.AppendJSON((*buf)[:0], doc)
	*buf = append(*buf, '\n')
	n, err := sink.Write(*buf)
	return int64(n), err
}

// RunAggregation writes the rows of an aggregator the engine has fed its
// matching documents to sink, counting them into stats.Returned and
// stats.OutputBytes.
func RunAggregation(agg *query.Aggregator, sink io.Writer, stats *ExecStats) error {
	var buf []byte
	for _, row := range agg.Result() {
		n, err := WriteDoc(sink, &buf, row)
		if err != nil {
			return err
		}
		stats.Returned++
		stats.OutputBytes += n
	}
	return nil
}
