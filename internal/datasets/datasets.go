// Package datasets provides seeded synthetic generators for the three
// dataset families of the paper's evaluation (§VI): a heterogeneous,
// deeply nested Twitter-like stream; the shallow, sparse NoBench dataset of
// Chasseur et al.; and a flat fixed-schema Reddit-comments dataset.
//
// The paper uses a 109 GB Twitter crawl and a 30 GB Reddit dump; those are
// not redistributable, so these generators reproduce the structural
// properties the benchmark exploits — schema heterogeneity, nesting depth,
// attribute sparsity, string prefix groups, document-size skew — at
// configurable scale.
package datasets

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"

	"github.com/joda-explore/betze/internal/fsatomic"
	"github.com/joda-explore/betze/internal/jsonval"
)

// Source is a seeded document generator for one dataset family.
type Source struct {
	// Name is the dataset family name ("Twitter", "NoBench", "Reddit").
	Name string
	// next produces the i-th document using the source's random stream.
	next func(r *rand.Rand, i int) jsonval.Value
}

// ByName returns the generator of the dataset family named twitter,
// nobench or reddit; opts configures reddit and is ignored by the others.
func ByName(name string, opts RedditOptions) (Source, error) {
	switch name {
	case "twitter":
		return NewTwitter(), nil
	case "nobench":
		return NewNoBench(), nil
	case "reddit":
		return NewReddit(opts), nil
	}
	return Source{}, fmt.Errorf("datasets: unknown family %q (twitter, nobench, reddit)", name)
}

// Generate materialises n documents with the given seed.
func (s Source) Generate(n int, seed int64) []jsonval.Value {
	r := rand.New(rand.NewSource(seed))
	docs := make([]jsonval.Value, n)
	for i := range docs {
		docs[i] = s.next(r, i)
	}
	return docs
}

// WriteTo streams n documents as newline-delimited JSON.
func (s Source) WriteTo(w io.Writer, n int, seed int64) error {
	bw := bufio.NewWriterSize(w, 256*1024)
	r := rand.New(rand.NewSource(seed))
	var buf []byte
	for i := 0; i < n; i++ {
		buf = jsonval.AppendJSON(buf[:0], s.next(r, i))
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile streams n documents into a newline-delimited JSON file,
// published atomically — readers never observe a partially written dataset.
func (s Source) WriteFile(path string, n int, seed int64) error {
	f, err := fsatomic.Create(path)
	if err != nil {
		return fmt.Errorf("datasets: %w", err)
	}
	defer f.Close()
	if err := s.WriteTo(f, n, seed); err != nil {
		return fmt.Errorf("datasets: writing %s: %w", path, err)
	}
	if err := f.Commit(); err != nil {
		return fmt.Errorf("datasets: %w", err)
	}
	return nil
}

// WriteDocs writes already generated documents into a newline-delimited
// JSON file, published atomically like WriteFile. The documents are written
// as they are, not regenerated.
func WriteDocs(path string, docs []jsonval.Value) error {
	stored := Source{next: func(_ *rand.Rand, i int) jsonval.Value { return docs[i] }}
	return stored.WriteFile(path, len(docs), 0)
}

// m is shorthand for building object members.
func m(key string, v jsonval.Value) jsonval.Member { return jsonval.Member{Key: key, Value: v} }

func str(s string) jsonval.Value   { return jsonval.StringValue(s) }
func num(n int64) jsonval.Value    { return jsonval.IntValue(n) }
func flt(f float64) jsonval.Value  { return jsonval.FloatValue(f) }
func boolean(b bool) jsonval.Value { return jsonval.BoolValue(b) }
