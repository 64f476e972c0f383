// Package analyze implements the BETZE dataset analyzer (§IV-A).
//
// The analyzer streams a JSON dataset once and produces the statistical
// summary (internal/jsonstats) the query generator works on. The paper uses
// a JODA instance as the analysis backend; this implementation is native Go
// with a parallel worker pool — the "included in the generator without the
// help of external data wrangling tools" variant the paper lists as future
// work — while the engine packages can still serve as alternative backends.
package analyze

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/jsonval"
)

// Options configures an analyzer run.
type Options struct {
	// Workers is the number of parallel analysis goroutines; 0 means
	// runtime.NumCPU().
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

// Values summarises an in-memory document slice.
func Values(name string, docs []jsonval.Value, opts Options) *jsonstats.Dataset {
	workers := opts.workers()
	if workers > len(docs) {
		workers = max(1, len(docs))
	}
	if workers == 1 {
		out := jsonstats.NewDataset(name, opts.Stats)
		for i, doc := range docs {
			if !opts.sampled(int64(i)) {
				continue
			}
			out.AddDocument(doc)
		}
		return out
	}
	shards := make([]*jsonstats.Dataset, workers)
	var wg sync.WaitGroup
	chunk := (len(docs) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(docs))
		if lo >= hi {
			shards[w] = jsonstats.NewDataset(name, opts.Stats)
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ds := jsonstats.NewDataset(name, opts.Stats)
			for i := lo; i < hi; i++ {
				if !opts.sampled(int64(i)) {
					continue
				}
				ds.AddDocument(docs[i])
			}
			shards[w] = ds
		}(w, lo, hi)
	}
	wg.Wait()
	out := shards[0]
	for _, s := range shards[1:] {
		out.Merge(s)
	}
	return out
}

// Reader summarises a stream of concatenated or newline-delimited JSON
// documents. Parsing and statistics run on a worker pool; document order
// does not affect the result because summaries are merge-commutative.
// Every document is walked once and dropped, and a summary copies what it
// keeps, so each parser recycles its memory before the next document: in
// steady state analysis allocates nothing per document.
func Reader(name string, r io.Reader, opts Options) (*jsonstats.Dataset, error) {
	workers := opts.workers()
	if workers == 1 {
		dec := jsonval.NewDecoder(r)
		out := jsonstats.NewDataset(name, opts.Stats)
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

	// Parallel path: the main goroutine only finds document boundaries
	// (jsonval.ScanValue, no parsing); workers parse each raw chunk and
	// fold it into a shard summary. Batches are assigned round-robin so
	// the shard split — and with it the merged summary, including the
	// approximate histograms — is deterministic for a given input.
	const batchSize = 64
	perWorker := make([]chan *batch, workers)
	// free returns parsed batches to the scanner. Each worker holds at most
	// three (two queued, one in hand) and the scanner fills one, so in
	// steady state every batch is a recycled one.
	free := make(chan *batch, 3*workers+1)
	shards := make([]*jsonstats.Dataset, workers)
	var (
		wg        sync.WaitGroup
		errOnce   sync.Once
		workerErr error
	)
	for w := 0; w < workers; w++ {
		perWorker[w] = make(chan *batch, 2)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ds := jsonstats.NewDataset(name, opts.Stats)
			var parser jsonval.Parser
			for b := range perWorker[w] {
				for _, raw := range b.docs {
					parser.Recycle()
					doc, err := parser.Parse(raw)
					if err != nil {
						errOnce.Do(func() { workerErr = fmt.Errorf("analyze: %w", err) })
						continue
					}
					ds.AddDocument(doc)
				}
				// The parser copies what it returns: nothing points into b.
				select {
				case free <- b:
				default:
				}
			}
			shards[w] = ds
		}(w)
	}

	next := 0
	var docIdx int64
	scanErr := scanDocuments(r, free, func(b *batch) {
		if opts.SampleEvery > 1 {
			kept := b.docs[:0]
			for _, raw := range b.docs {
				if opts.sampled(docIdx) {
					kept = append(kept, raw)
				}
				docIdx++
			}
			if len(kept) == 0 {
				select {
				case free <- b:
				default:
				}
				return
			}
			b.docs = kept
		}
		perWorker[next%workers] <- b
		next++
	}, batchSize)
	for _, ch := range perWorker {
		close(ch)
	}
	wg.Wait()
	if scanErr != nil {
		return nil, scanErr
	}
	if workerErr != nil {
		return nil, workerErr
	}
	out := shards[0]
	for _, s := range shards[1:] {
		out.Merge(s)
	}
	return out, nil
}

// batch is up to batchSize documents, back to back in one buffer.
type batch struct {
	buf  []byte
	docs [][]byte
}

// scanDocuments splits the stream into documents using jsonval.ScanValue
// and emits them in batches of batchSize. It fills a batch from free when
// one is there and allocates one otherwise; a batch it emits is not touched
// again until it comes back through free.
func scanDocuments(r io.Reader, free <-chan *batch, emit func(*batch), batchSize int) error {
	buf := make([]byte, 0, 256*1024)
	start := 0
	offset := 0
	eof := false
	var b *batch
	size := 0 // the largest batch buffer yet: a new one starts that big
	ends := make([]int, 0, batchSize)
	flush := func() {
		if len(ends) == 0 {
			return
		}
		b.docs = b.docs[:0]
		lo := 0
		for _, hi := range ends {
			b.docs = append(b.docs, b.buf[lo:hi:hi])
			lo = hi
		}
		size = max(size, cap(b.buf))
		emit(b)
		b, ends = nil, ends[:0]
	}
	for {
		for {
			n, err := jsonval.ScanValue(buf[start:], eof)
			if err != nil {
				if se, ok := err.(*jsonval.SyntaxError); ok {
					se.Offset += offset + start
				}
				return fmt.Errorf("analyze: %w", err)
			}
			if n == 0 {
				break // need more input, or none is left
			}
			if b == nil {
				select {
				case b = <-free:
					b.buf = b.buf[:0]
				default:
					b = &batch{buf: make([]byte, 0, size), docs: make([][]byte, 0, batchSize)}
				}
			}
			b.buf = append(b.buf, buf[start:start+n]...)
			ends = append(ends, len(b.buf))
			if len(ends) == batchSize {
				flush()
			}
			start += n
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
