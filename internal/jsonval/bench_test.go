package jsonval_test

import (
	"bytes"
	"io"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonval"
)

func benchDecode(b *testing.B, src datasets.Source) {
	var raw bytes.Buffer
	if err := src.WriteTo(&raw, 2000, 7); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(raw.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := jsonval.NewDecoder(bytes.NewReader(raw.Bytes()))
		for {
			if _, err := dec.Decode(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkDecodeTwitter(b *testing.B) { benchDecode(b, datasets.NewTwitter()) }
func BenchmarkDecodeNoBench(b *testing.B) { benchDecode(b, datasets.NewNoBench()) }
func BenchmarkDecodeReddit(b *testing.B) {
	benchDecode(b, datasets.NewReddit(datasets.RedditOptions{}))
}
