// Package jqsim is the jq stand-in: a command-line-style stream filter with
// no import phase and no shared state between queries. Every query re-opens
// the dataset file and re-parses every document from text into generic boxed
// value trees (encoding/json into interface{}), mirroring jq's jv heap
// representation — including its use of double-precision floats for every
// number — and serialises its full result. These per-query parse and
// allocation costs are the reason the paper concludes that "using jq to
// explore large sets of JSON files is unfeasible". Stored results become new
// files in the engine's working directory, which is how jq materialises
// datasets; the engine writes and deletes no other file.
//
// jqsim is deliberately an unprunable baseline, as jodasim is: with no import
// phase there is nowhere to build zone maps, so every query walks the whole
// file and ExecStats.Skipped stays zero. Comparing its scan counts against
// mongosim's and pgsim's isolates what zone-map skipping buys.
package jqsim

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/joda-explore/betze/internal/engine"
	"github.com/joda-explore/betze/internal/engine/scan"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// Engine implements engine.Engine.
type Engine struct {
	workdir string
	// ownsDir marks a workdir the engine created itself and removes
	// wholesale on Close.
	ownsDir bool
	cat     *engine.Catalog[string] // dataset name -> file path

	// mu is held from resolving a name to opening its file, and while a
	// store file the catalog dropped is deleted, so no query opens a
	// deleted file.
	mu sync.Mutex
}

// New returns an engine materialising derived datasets under workdir; an
// empty workdir uses a fresh temporary directory removed on Close.
func New(workdir string) (*Engine, error) {
	e := &Engine{workdir: workdir, cat: engine.NewCatalog[string]("jqsim")}
	if workdir == "" {
		dir, err := os.MkdirTemp("", "jqsim-*")
		if err != nil {
			return nil, fmt.Errorf("jqsim: %w", err)
		}
		e.workdir = dir
		e.ownsDir = true
	}
	return e, nil
}

// NewTempIn returns an engine whose workdir is a fresh subdirectory of
// parent, removed on Close — the per-session isolation the harness uses so
// that no session sees another's store files.
func NewTempIn(parent string) (*Engine, error) {
	dir, err := os.MkdirTemp(parent, "jqsim-*")
	if err != nil {
		return nil, fmt.Errorf("jqsim: %w", err)
	}
	e, err := New(dir)
	if err != nil {
		return nil, err
	}
	e.ownsDir = true
	return e, nil
}

// Name implements engine.Engine.
func (*Engine) Name() string { return "jq" }

// ImportFile implements engine.Engine. jq has no import: the engine only
// records where the file lives (constant time, like the paper's setup where
// jq "operates directly on the input data files").
func (e *Engine) ImportFile(ctx context.Context, name, path string) (engine.ImportStats, error) {
	start := time.Now()
	info, err := os.Stat(path)
	if err != nil {
		err = fmt.Errorf("jqsim: %w", err)
		engine.ObserveImport(ctx, e.Name(), name, engine.ImportStats{}, err)
		return engine.ImportStats{}, err
	}
	if dropped, ok := e.cat.Import(name, path); ok {
		_ = e.remove(dropped) // a file left behind costs disk space, not results
	}
	stats := engine.ImportStats{Bytes: info.Size(), StoredBytes: info.Size(), Duration: time.Since(start)}
	engine.ObserveImport(ctx, e.Name(), name, stats, nil)
	return stats, nil
}

// Execute implements engine.Engine: stream, parse into boxed values,
// filter, print.
func (e *Engine) Execute(ctx context.Context, q *query.Query, sink io.Writer) (stats engine.ExecStats, err error) {
	if err := q.Validate(); err != nil {
		return engine.ExecStats{}, fmt.Errorf("jqsim: %w", err)
	}
	start := time.Now()
	defer func() { engine.ObserveExec(ctx, e.Name(), q, stats, err) }()
	f, err := e.open(q.Base)
	if err != nil {
		return engine.ExecStats{}, err
	}
	defer f.Close()

	var agg *query.Aggregator
	if q.Agg != nil {
		agg = query.NewAggregator(*q.Agg)
	}
	var storeFile *os.File
	var storeWriter *bufio.Writer
	if q.Store != "" {
		// The store is written to a file of its own and published only once
		// it is complete: a query that fails half-way leaves no dataset
		// behind, and a later query on its name gets
		// engine.ErrUnknownDataset rather than a readable prefix.
		storeFile, err = os.CreateTemp(e.workdir, "store-*.json")
		if err != nil {
			return stats, fmt.Errorf("jqsim: creating store file: %w", err)
		}
		storeWriter = bufio.NewWriter(storeFile)
		defer func() {
			if err != nil {
				storeFile.Close()
				os.Remove(storeFile.Name())
			}
		}()
	}

	// The aggregation pipelines of the paper run TWO jq processes: the
	// filter pass prints its matches, and a second slurping instance
	// re-parses that stream to reduce it. For them out models the pipe
	// between the two — matched documents are serialised here and parsed
	// again below, which is why jq "benefits from this the least" (Table
	// III). Otherwise out holds one printed document at a time.
	var out bytes.Buffer
	enc := json.NewEncoder(&out) // Marshal's bytes plus the newline, without Marshal's copy

	// The decode loop is an unbounded stream: the document count is unknown
	// until the decoder hits EOF.
	match := matcher(q.Filter)
	dec := json.NewDecoder(bufio.NewReaderSize(f, 256*1024))
	if _, err := scan.Stream(ctx, scan.Options{Engine: e.Name()}, -1, func(int) (bool, error) {
		var doc any
		if derr := dec.Decode(&doc); derr == io.EOF {
			return false, nil
		} else if derr != nil {
			return false, fmt.Errorf("jqsim: parsing %s: %w", f.Name(), derr)
		}
		stats.Scanned++
		ok, merr := match(doc)
		if merr != nil {
			return false, merr
		}
		if !ok {
			return true, nil
		}
		stats.Matched++
		if q.Transform != nil {
			// jq pipelines restructure the boxed value; model the cost by
			// rebuilding the tree around the edit.
			doc = fromValue(q.Transform.Apply(toValue(doc)))
		}
		if agg == nil {
			out.Reset()
		}
		if merr := enc.Encode(doc); merr != nil {
			return false, fmt.Errorf("jqsim: %w", merr)
		}
		if agg != nil {
			return true, nil
		}
		// jq always prints its output (the paper: "jq queries would
		// always output the whole content over stdout").
		n, werr := sink.Write(out.Bytes())
		if werr != nil {
			return false, werr
		}
		stats.Returned++
		stats.OutputBytes += int64(n)
		if storeWriter != nil {
			if _, werr := storeWriter.Write(out.Bytes()); werr != nil {
				return false, werr
			}
		}
		return true, nil
	}); err != nil {
		return stats, err
	}
	if agg != nil {
		// Second jq instance: slurp the filtered stream and reduce it.
		aggSteps, groupSteps := q.Agg.Path.Steps(), q.Agg.GroupBy.Steps()
		slurp := json.NewDecoder(&out)
		for {
			var doc any
			if err := slurp.Decode(&doc); err == io.EOF {
				break
			} else if err != nil {
				return stats, fmt.Errorf("jqsim: re-parsing pipe: %w", err)
			}
			v, vok, _ := lookupAny(doc, aggSteps)
			var g boxed
			var gok bool
			if q.Agg.Grouped {
				g, gok, _ = lookupAny(doc, groupSteps)
			}
			// Only the referenced attributes are converted.
			agg.AddValues(toValue(v.v), vok, toValue(g.v), gok)
		}
		if err := engine.RunAggregation(agg, sink, &stats); err != nil {
			return stats, err
		}
	}
	if storeWriter != nil {
		if err := storeWriter.Flush(); err != nil {
			return stats, fmt.Errorf("jqsim: writing store file: %w", err)
		}
		if err := storeFile.Close(); err != nil {
			return stats, fmt.Errorf("jqsim: writing store file: %w", err)
		}
		if replaced, ok := e.cat.Store(q.Store, storeFile.Name()); ok {
			_ = e.remove(replaced) // a file left behind costs disk space, not results
		}
	}
	stats.Duration = time.Since(start)
	return stats, nil
}

// matcher compiles the per-query document test over boxed values.
func matcher(p query.Predicate) func(doc any) (bool, error) {
	return query.CompileLookup(p, lookupAny, func(doc any) (jsonval.Value, error) { return toValue(doc), nil }).Match
}

// boxed is a jq-style boxed value (encoding/json's any; every number a
// float64, like jq's doubles) seen as a query.LeafValue, so the filter runs
// on the compiler's one leaf table.
type boxed struct{ v any }

func (b boxed) Kind() jsonval.Kind {
	switch b.v.(type) {
	case nil:
		return jsonval.Null
	case bool:
		return jsonval.Bool
	case float64:
		return jsonval.Float
	case string:
		return jsonval.String
	case []any:
		return jsonval.Array
	default:
		return jsonval.Object
	}
}

func (b boxed) Number() (float64, bool)   { f, ok := b.v.(float64); return f, ok }
func (b boxed) Bool() (bool, bool)        { t, ok := b.v.(bool); return t, ok }
func (b boxed) EqualString(s string) bool { str, ok := b.v.(string); return ok && str == s }
func (b boxed) HasPrefix(p string) bool   { s, ok := b.v.(string); return ok && strings.HasPrefix(s, p) }

func (b boxed) Len() (int, bool) {
	switch t := b.v.(type) {
	case []any:
		return len(t), true
	case map[string]any:
		return len(t), true
	}
	return 0, false
}

// lookupAny resolves pre-split path steps inside a boxed document. It never
// fails; the error result is query.CompileLookup's lookup signature.
func lookupAny(doc any, steps []string) (boxed, bool, error) {
	for _, seg := range steps {
		obj, ok := doc.(map[string]any)
		if !ok {
			return boxed{}, false, nil
		}
		if doc, ok = obj[seg]; !ok {
			return boxed{}, false, nil
		}
	}
	return boxed{doc}, true, nil
}

// toValue converts a boxed value into the typed model for aggregation.
// Numbers stay floats — jq computes in doubles.
func toValue(v any) jsonval.Value {
	switch t := v.(type) {
	case nil:
		return jsonval.NullValue()
	case bool:
		return jsonval.BoolValue(t)
	case float64:
		return jsonval.FloatValue(t)
	case string:
		return jsonval.StringValue(t)
	case []any:
		elems := make([]jsonval.Value, len(t))
		for i, e := range t {
			elems[i] = toValue(e)
		}
		return jsonval.ArrayValue(elems...)
	case map[string]any:
		members := make([]jsonval.Member, 0, len(t))
		for k, e := range t {
			members = append(members, jsonval.Member{Key: k, Value: toValue(e)})
		}
		return jsonval.ObjectValue(members...)
	default:
		return jsonval.NullValue()
	}
}

// fromValue converts a typed value back into the boxed representation.
func fromValue(v jsonval.Value) any {
	switch v.Kind() {
	case jsonval.Null:
		return nil
	case jsonval.Bool:
		return v.Bool()
	case jsonval.Int:
		return float64(v.Int()) // jq numbers are doubles
	case jsonval.Float:
		return v.Float()
	case jsonval.String:
		return v.Str()
	case jsonval.Array:
		out := make([]any, v.Len())
		for i, e := range v.Array() {
			out[i] = fromValue(e)
		}
		return out
	case jsonval.Object:
		out := make(map[string]any, v.Len())
		for _, m := range v.Members() {
			out[m.Key] = fromValue(m.Value)
		}
		return out
	default:
		return nil
	}
}

// open opens the file a query on name reads.
func (e *Engine) open(name string) (*os.File, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	path, err := e.cat.Get(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("jqsim: %w", err)
	}
	return f, nil
}

// remove deletes store files the catalog dropped, once no Execute is
// between resolving one of them and opening it.
func (e *Engine) remove(paths ...string) (err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range paths {
		err = errors.Join(err, os.Remove(p))
	}
	return err
}

// Reset implements engine.Engine: derived files are removed.
func (e *Engine) Reset() error {
	return e.remove(e.cat.Reset()...)
}

// Close implements engine.Engine. An owned workdir (New("") or NewTempIn)
// is removed entirely.
func (e *Engine) Close() error {
	err := e.Reset()
	if e.ownsDir {
		if rmErr := os.RemoveAll(e.workdir); err == nil {
			err = rmErr
		}
	}
	return err
}
