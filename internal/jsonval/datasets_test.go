package jsonval_test

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonval"
)

var sources = []datasets.Source{
	datasets.NewTwitter(),
	datasets.NewNoBench(),
	datasets.NewReddit(datasets.RedditOptions{}),
}

// shortReader reads at most 61 bytes at a time: every document is split.
type shortReader struct{ r io.Reader }

func (s shortReader) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), 61)]) }

// TestGeneratedDocumentsMatchReference runs the differential check of
// parser_test.go over 300 documents of each dataset family, one by one, and
// then decodes each family's whole stream — through one Decoder, so one
// Parser and its slabs and intern table — under awkward read sizes.
func TestGeneratedDocumentsMatchReference(t *testing.T) {
	for _, src := range sources {
		var raw bytes.Buffer
		if err := src.WriteTo(&raw, 300, 21); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(raw.Bytes(), []byte("\n")), []byte("\n"))
		want := make([]jsonval.Value, len(lines))
		for i, line := range lines {
			jsonval.CheckAgainstReference(t, line)
			want[i], _ = jsonval.ReferenceParse(line)
		}
		for name, chunk := range map[string]func(io.Reader) io.Reader{
			"whole":    func(r io.Reader) io.Reader { return r },
			"half":     iotest.HalfReader,
			"data+err": iotest.DataErrReader,
		} {
			dec := jsonval.NewDecoder(chunk(bytes.NewReader(raw.Bytes())))
			for i, w := range want {
				got, err := dec.Decode()
				if err != nil || !jsonval.StrictEqual(got, w) {
					t.Fatalf("%s, %s reads, document %d: %s, %v; want %s", src.Name, name, i, got, err, w)
				}
			}
			if _, err := dec.Decode(); err != io.EOF {
				t.Fatalf("%s, %s reads: %v after the last document, want io.EOF", src.Name, name, err)
			}
		}
	}
}

// TestDecoderAllocationGates: the recursive parser allocated 54 times per
// NoBench document and 161 times per Twitter document; decoding a file now
// costs a slab chunk every few dozen documents and one string per distinct
// member name.
func TestDecoderAllocationGates(t *testing.T) {
	for _, gate := range []struct {
		src    datasets.Source
		perDoc float64
	}{{datasets.NewNoBench(), 8}, {datasets.NewTwitter(), 30}} {
		const docs = 2000
		var raw bytes.Buffer
		if err := gate.src.WriteTo(&raw, docs, 7); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			dec := jsonval.NewDecoder(bytes.NewReader(raw.Bytes()))
			for {
				if _, err := dec.Decode(); err == io.EOF {
					return
				} else if err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("%s: %.2f allocations per document", gate.src.Name, allocs/docs)
		if allocs/docs > gate.perDoc {
			t.Errorf("%s: %.1f allocations per document through the Decoder, gate is %.0f", gate.src.Name, allocs/docs, gate.perDoc)
		}
	}
}
