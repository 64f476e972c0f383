package jsonstats_test

import (
	"bytes"
	"testing"

	"github.com/joda-explore/betze/internal/core"
	"github.com/joda-explore/betze/internal/jsonstats"
)

// FuzzReadFrom feeds arbitrary bytes to the analysis-file reader and
// generates a session from whatever it accepts: a file is either rejected
// with an error or good enough for Generate to run to completion without
// panicking. An accepted string table counts every key at least once, so
// the seed files with a zero and a negative count must be rejected.
func FuzzReadFrom(f *testing.F) {
	file := func(prefixes, values string) []byte {
		return []byte(`{"name":"ds","doc_count":2,"config":{"prefix_len":4,"max_prefixes":64,"max_values":32,"histogram_buckets":2},` +
			`"paths":{"/":{"count":2,"object":{"Count":2,"MinChildren":1,"MaxChildren":2}},` +
			`"/n":{"count":2,"int":{"Count":1,"Min":3,"Max":3},"float":{"Count":1,"Min":1.5,"Max":1.5},` +
			`"numeric_histogram":{"bounds":[1.5,1.5,3],"counts":[1,1],"total":2}},` +
			`"/s":{"count":1,"string":{"count":1,"prefixes":` + prefixes + `,"values":` + values + `,"min_len":3,"max_len":3}}}}`)
	}
	f.Add(file(`{"ab":1}`, `{"abc":1}`))
	f.Add(file(`{"ab":1}`, `{"abc":1,"abd":0}`))
	f.Add(file(`{"ab":-1}`, `{"abc":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := jsonstats.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		for p, ps := range d.Paths {
			if ps.Str == nil {
				continue
			}
			for _, table := range []jsonstats.Counted{ps.Str.Prefixes, ps.Str.Values} {
				for i := 0; i < table.Len(); i++ {
					if k, c := table.At(i); c < 1 {
						t.Fatalf("accepted path %s with string %q counted %d times", p, k, c)
					}
				}
			}
		}
		_, _ = core.Generate(core.Options{Preset: core.Novice, Seed: 1}, d)
	})
}
