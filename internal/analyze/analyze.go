// Package analyze implements the BETZE dataset analyzer (§IV-A).
//
// The analyzer streams a JSON dataset once and produces the statistical
// summary (internal/jsonstats) the query generator works on. The paper uses
// a JODA instance as the analysis backend; this implementation is native Go
// — the "included in the generator without the help of external data
// wrangling tools" variant the paper lists as future work — while the engine
// packages can still serve as alternative backends. Parallel workers only
// parse; the documents are folded into the summary one at a time in stream
// order, because the summary depends on that order (a full string table
// keeps the keys it saw first, a histogram takes its buckets from the first
// values). The summary is therefore the same for every worker count.
package analyze

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/jsonval"
)

// Options configures an analyzer run.
type Options struct {
	// Workers is the number of goroutines that parse documents; 0 means
	// runtime.NumCPU(). It changes how fast a stream is analysed, never the
	// summary.
	Workers int
	// Stats bounds the string statistics (zero value: package defaults).
	Stats jsonstats.Config
	// SampleEvery analyzes only every k-th document (deterministically),
	// the paper's §VI-A suggestion for cutting analysis time "at a
	// potential minor loss of query accuracy". 0 or 1 analyzes everything.
	// Selectivity targeting works on ratios, so a sampled summary remains
	// directly usable by the generator.
	SampleEvery int
}

// sampled reports whether document index i participates.
func (o Options) sampled(i int64) bool {
	return o.SampleEvery <= 1 || i%int64(o.SampleEvery) == 0
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.NumCPU()
}

// Values summarises an in-memory document slice. The documents are parsed
// already, so there is no work to share out: Values folds them on the
// calling goroutine whatever opts.Workers says.
func Values(name string, docs []jsonval.Value, opts Options) *jsonstats.Dataset {
	out := jsonstats.NewDataset(name, opts.Stats)
	for i, doc := range docs {
		if opts.sampled(int64(i)) {
			out.AddDocument(doc)
		}
	}
	return out
}

// Reader summarises a stream of concatenated or newline-delimited JSON
// documents. Every document is walked once and dropped, and a summary copies
// what it keeps, so parsers recycle their memory: in steady state analysis
// allocates nothing per document.
//
// With one worker, the calling goroutine decodes and folds each document in
// turn. With more, it only finds document boundaries (jsonval.ScanValue, no
// parsing) and copies the documents into batches, the workers parse the
// batches, and one goroutine folds the parsed documents into the summary in
// stream order. The summary, and the error reported for a malformed stream,
// are therefore the same for every worker count.
func Reader(name string, r io.Reader, opts Options) (*jsonstats.Dataset, error) {
	out := jsonstats.NewDataset(name, opts.Stats)
	workers := opts.workers()
	if workers == 1 {
		dec := jsonval.NewDecoder(r)
		var i int64
		for {
			dec.Recycle()
			doc, err := dec.Decode()
			if err == io.EOF {
				return out, nil
			}
			if err != nil {
				return nil, fmt.Errorf("analyze: %w", err)
			}
			if opts.sampled(i) {
				out.AddDocument(doc)
			}
			i++
		}
	}

	// Batch i goes to worker i%workers, and each worker hands its batches on
	// in the order it got them, so reading the workers' outputs round-robin
	// yields the batches in stream order.
	in, parsed := make([]chan *batch, workers), make([]chan *batch, workers)
	var wg sync.WaitGroup
	for w := range in {
		in[w], parsed[w] = make(chan *batch, 1), make(chan *batch, 1)
		wg.Add(1)
		go func(in <-chan *batch, parsed chan<- *batch) {
			defer wg.Done()
			for b := range in {
				b.parse()
				parsed <- b
			}
			close(parsed)
		}(in[w], parsed[w])
	}

	// Two batches per worker (one in hand, one queued), one being folded,
	// one being filled and one on its way back keep every stage busy; past
	// that many the scanner waits for a batch to come back rather than
	// allocate another. free holds them all, so the folder never waits to
	// hand one back.
	maxBatches := 2*workers + 3
	free := make(chan *batch, maxBatches)
	var (
		failed  atomic.Bool
		foldErr error
	)
	folded := make(chan struct{})
	go func() {
		defer close(folded)
		for i := 0; ; i++ {
			b, ok := <-parsed[i%workers]
			if !ok {
				return
			}
			switch {
			case foldErr != nil: // drain: the scanner stops at its next batch
			case b.err != nil:
				foldErr = b.err
				failed.Store(true)
			default:
				for j, doc := range b.vals {
					if opts.sampled(b.first + int64(j)) {
						out.AddDocument(doc)
					}
				}
			}
			free <- b
		}
	}()

	allocated, next := 0, 0
	scanErr := scanDocuments(r, func() *batch {
		select {
		case b := <-free:
			return b
		default:
		}
		if allocated < maxBatches {
			allocated++
			return &batch{}
		}
		return <-free
	}, func(b *batch) bool {
		in[next%workers] <- b
		next++
		return !failed.Load()
	})
	for _, ch := range in {
		close(ch)
	}
	<-folded
	wg.Wait()
	// Every document in a batch comes before the point where scanning
	// stopped, so a parse error is the first error in the stream.
	if foldErr != nil {
		return nil, foldErr
	}
	if scanErr != nil {
		return nil, scanErr
	}
	return out, nil
}

// batchBytes is how much of the stream a batch holds, give or take a
// document. Batches are sized in bytes, not documents, so the memory in
// flight does not grow with the documents, and a small file still makes
// enough batches to keep every worker busy.
const batchBytes = 16 << 10

// batch is consecutive documents of the stream, back to back in one buffer,
// and once a worker has parsed them, their values. The values live in the
// batch's own parser, recycled when the batch is parsed again.
type batch struct {
	buf   []byte
	docs  [][]byte
	first int64 // the stream index of docs[0]
	at    int   // the stream offset of buf[0]

	p    jsonval.Parser
	vals []jsonval.Value
	err  error // the first document that does not parse, as Workers: 1 reports it
}

func (b *batch) parse() {
	b.p.Recycle()
	b.vals, b.err = b.vals[:0], nil
	at := b.at
	for _, raw := range b.docs {
		v, err := b.p.Parse(raw)
		if err != nil {
			if se, ok := err.(*jsonval.SyntaxError); ok {
				se.Offset += at
			}
			b.err = fmt.Errorf("analyze: %w", err)
			return
		}
		b.vals = append(b.vals, v)
		at += len(raw)
	}
}

// scanDocuments splits the stream into documents using jsonval.ScanValue
// and copies them into batches of about batchBytes, taken from get and
// handed to emit. A batch it emits is not touched again until get
// returns it once more. Scanning stops early when emit returns false.
func scanDocuments(r io.Reader, get func() *batch, emit func(*batch) bool) error {
	buf := make([]byte, 0, 256*1024)
	start := 0
	offset := 0
	eof := false
	var b *batch
	var docs int64
	size := 0 // the largest batch buffer yet: a new one starts that big
	var ends []int
	flush := func() bool {
		if len(ends) == 0 {
			return true
		}
		b.docs = b.docs[:0]
		lo := 0
		for _, hi := range ends {
			b.docs = append(b.docs, b.buf[lo:hi:hi])
			lo = hi
		}
		size = max(size, cap(b.buf))
		docs += int64(len(ends))
		next := b
		b, ends = nil, ends[:0]
		return emit(next)
	}
	for {
		for {
			n, err := jsonval.ScanValue(buf[start:], eof)
			if err != nil {
				// The decoder Workers: 1 uses would report the parser's
				// error on the same bytes: report that one.
				if _, _, perr := new(jsonval.Parser).ParsePrefix(buf[start:]); perr != nil {
					err = perr
				}
				if se, ok := err.(*jsonval.SyntaxError); ok {
					se.Offset += offset + start
				}
				return fmt.Errorf("analyze: %w", err)
			}
			if n == 0 {
				break // need more input, or none is left
			}
			if b == nil {
				b = get()
				if b.buf == nil {
					b.buf = make([]byte, 0, size)
				}
				b.buf, b.first, b.at = b.buf[:0], docs, offset+start
			}
			b.buf = append(b.buf, buf[start:start+n]...)
			ends = append(ends, len(b.buf))
			start += n
			if len(b.buf) >= batchBytes && !flush() {
				return nil
			}
		}
		if eof {
			flush()
			return nil
		}
		// Compact and refill.
		if start > 0 {
			n := copy(buf[:cap(buf)], buf[start:])
			offset += start
			buf = buf[:n]
			start = 0
		}
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), 2*cap(buf))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			eof = true
		} else if err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
	}
}

// File summarises a dataset file. The dataset name defaults to the file name
// when name is empty.
func File(name, path string, opts Options) (*jsonstats.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	defer f.Close()
	if name == "" {
		name = f.Name()
	}
	return Reader(name, f, opts)
}
