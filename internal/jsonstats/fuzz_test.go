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
// panicking.
func FuzzReadFrom(f *testing.F) {
	f.Add([]byte(`{"name":"ds","doc_count":2,"config":{"prefix_len":4,"max_prefixes":64,"max_values":32,"histogram_buckets":2},` +
		`"paths":{"/":{"count":2,"object":{"Count":2,"MinChildren":1,"MaxChildren":2}},` +
		`"/n":{"count":2,"int":{"Count":1,"Min":3,"Max":3},"float":{"Count":1,"Min":1.5,"Max":1.5},` +
		`"numeric_histogram":{"bounds":[1.5,1.5,3],"counts":[1,1],"total":2}},` +
		`"/s":{"count":1,"string":{"count":1,"prefixes":{"ab":1},"values":{"abc":1},"min_len":3,"max_len":3}}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := jsonstats.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		_, _ = core.Generate(core.Options{Preset: core.Novice, Seed: 1}, d)
	})
}
