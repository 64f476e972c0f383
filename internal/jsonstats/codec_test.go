package jsonstats

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/jsonval"
)

func TestCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	d := NewDataset("Twitter", Config{PrefixLen: 3, MaxPrefixes: 10, MaxValues: 5})
	for i := 0; i < 150; i++ {
		d.AddDocument(randomDoc(r))
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != d.Name || back.DocCount != d.DocCount {
		t.Fatalf("header mismatch: %s/%d vs %s/%d", back.Name, back.DocCount, d.Name, d.DocCount)
	}
	if back.Config() != d.Config() {
		t.Fatalf("config mismatch: %+v vs %+v", back.Config(), d.Config())
	}
	assertDatasetsEqual(t, d, back)
	if err := back.Validate(); err != nil {
		t.Fatalf("Validate after round trip: %v", err)
	}
}

func TestCodecRootPathSurvives(t *testing.T) {
	d := buildDataset(t, `{"a":1}`)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"/"`) {
		t.Errorf("root path missing from serialised form: %s", data)
	}
	var back Dataset
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Paths[jsonval.RootPath] == nil {
		t.Errorf("root path lost in round trip")
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(strings.NewReader("not json")); err == nil {
		t.Errorf("garbage accepted")
	}
}

func TestCodecListingTwoShape(t *testing.T) {
	// The serialised form follows the structure of Listing 2: named paths
	// with per-type statistics.
	d := buildDataset(t,
		`{"user":{"name":"x"}}`,
		`{"user":{"name":"y","id":3}}`,
	)
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	paths, ok := m["paths"].(map[string]any)
	if !ok {
		t.Fatalf("no paths object in %s", data)
	}
	user, ok := paths["/user"].(map[string]any)
	if !ok {
		t.Fatalf("no /user entry: %v", paths)
	}
	if user["count"].(float64) != 2 {
		t.Errorf("/user count = %v", user["count"])
	}
	if _, ok := user["object"]; !ok {
		t.Errorf("/user has no object stats: %v", user)
	}
	if _, ok := paths["/user/name"].(map[string]any)["string"]; !ok {
		t.Errorf("/user/name has no string stats")
	}
}

// TestReadFromRejectsBrokenInvariants: a file whose counts are negative or
// whose histogram breaks Histogram's invariant is rejected on decode, not
// left to panic in the generator. So is a string table counting a key fewer
// than once, which a view would drop while its root can still draw it.
func TestReadFromRejectsBrokenInvariants(t *testing.T) {
	file := func(docCount, pathCount, hist string) string {
		return `{"name":"ds","doc_count":` + docCount + `,"config":{},"paths":{"/n":{"count":` + pathCount +
			`,"float":{"Count":2,"Min":0,"Max":1},"numeric_histogram":` + hist + `}}}`
	}
	valid := `{"bounds":[0,0.5,1],"counts":[1,1],"total":2}`
	if _, err := ReadFrom(strings.NewReader(file("2", "2", valid))); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	for name, data := range map[string]string{
		"negative doc_count":  file("-1", "2", valid),
		"negative path count": file("2", "-2", valid),
		"no bounds":           file("2", "2", `{"bounds":[],"counts":[1],"total":1}`),
		"bounds short":        file("2", "2", `{"bounds":[0],"counts":[1,1],"total":2}`),
		"no buckets":          file("2", "2", `{"bounds":[0],"counts":[],"total":0}`),
		"decreasing bounds":   file("2", "2", `{"bounds":[0,1,0.5],"counts":[1,1],"total":2}`),
		"negative count":      file("2", "2", `{"bounds":[0,0.5,1],"counts":[3,-1],"total":2}`),
		"counts off total":    file("2", "2", `{"bounds":[0,0.5,1],"counts":[1,1],"total":3}`),
		"counts overflow":     file("2", "2", `{"bounds":[0,0.5,1],"counts":[9223372036854775807,2],"total":1}`),
	} {
		if _, err := ReadFrom(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	strs := func(table, counts string) string {
		return `{"name":"ds","doc_count":2,"config":{},"paths":{"/s":{"count":2,"string":{"count":2,"` + table + `":` + counts + `,"min_len":1,"max_len":1}}}}`
	}
	if _, err := ReadFrom(strings.NewReader(strs("values", `{"a":1,"b":1}`))); err != nil {
		t.Fatalf("valid string table rejected: %v", err)
	}
	for name, data := range map[string]string{
		"zero value count":      strs("values", `{"a":0,"b":2}`),
		"negative value count":  strs("values", `{"a":3,"b":-1}`),
		"zero prefix count":     strs("prefixes", `{"a":0}`),
		"negative prefix count": strs("prefixes", `{"a":-2}`),
	} {
		_, err := ReadFrom(strings.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "path /s") {
			t.Errorf("%s: err = %v, want a rejection naming path /s", name, err)
		}
	}
}
