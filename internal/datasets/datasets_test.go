package datasets

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/analyze"
	"github.com/joda-explore/betze/internal/jsonval"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, src := range []Source{NewTwitter(), NewNoBench(), NewReddit(RedditOptions{})} {
		a := src.Generate(50, 7)
		b := src.Generate(50, 7)
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Errorf("%s doc %d differs across same-seed runs", src.Name, i)
			}
		}
		c := src.Generate(50, 8)
		same := 0
		for i := range a {
			if a[i].String() == c[i].String() {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s produced identical output for different seeds", src.Name)
		}
	}
}

func TestWriteToMatchesGenerate(t *testing.T) {
	for _, src := range []Source{NewTwitter(), NewNoBench(), NewReddit(RedditOptions{})} {
		var buf bytes.Buffer
		if err := src.WriteTo(&buf, 30, 3); err != nil {
			t.Fatalf("%s: %v", src.Name, err)
		}
		docs := src.Generate(30, 3)
		dec := jsonval.NewDecoder(&buf)
		for i, want := range docs {
			got, err := dec.Decode()
			if err != nil {
				t.Fatalf("%s doc %d: %v", src.Name, i, err)
			}
			if got.String() != want.String() {
				t.Errorf("%s doc %d: streamed and generated differ", src.Name, i)
			}
		}
	}
}

func TestTwitterHeterogeneity(t *testing.T) {
	docs := NewTwitter().Generate(2000, 1)
	stats := analyze.Values("tw", docs, analyze.Options{Workers: 1})
	// Deletes, limits and statuses coexist.
	if stats.Paths[jsonval.Path("/delete/status/id")] == nil {
		t.Errorf("no delete events generated")
	}
	if stats.Paths[jsonval.Path("/limit/track")] == nil {
		t.Errorf("no limit events generated")
	}
	user := stats.Paths[jsonval.Path("/user")]
	if user == nil || user.Count == stats.DocCount {
		t.Errorf("user attribute should exist in a proper subset: %+v", user)
	}
	// Deep nesting via retweeted_status.
	deep := stats.Paths[jsonval.Path("/retweeted_status/user/verified")]
	if deep == nil || deep.Bool == nil {
		t.Errorf("no deeply nested retweet attributes")
	}
	maxDepth := 0
	for p := range stats.Paths {
		if d := p.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth < 4 {
		t.Errorf("max path depth %d, want >= 4", maxDepth)
	}
	// Document sizes vary widely (delete events vs full retweets).
	minLen, maxLen := 1<<30, 0
	for _, d := range docs {
		l := len(jsonval.AppendJSON(nil, d))
		if l < minLen {
			minLen = l
		}
		if l > maxLen {
			maxLen = l
		}
	}
	if maxLen < 8*minLen {
		t.Errorf("document size skew too small: %d..%d bytes", minLen, maxLen)
	}
}

func TestTwitterAllJSONTypes(t *testing.T) {
	stats := analyze.Values("tw", NewTwitter().Generate(1500, 2), analyze.Options{Workers: 1})
	var hasInt, hasFloat, hasStr, hasBool, hasArr, hasObj bool
	for _, ps := range stats.Paths {
		hasInt = hasInt || ps.Int != nil
		hasFloat = hasFloat || ps.Float != nil
		hasStr = hasStr || ps.Str != nil
		hasBool = hasBool || ps.Bool != nil
		hasArr = hasArr || ps.Arr != nil
		hasObj = hasObj || ps.Obj != nil
	}
	if !hasInt || !hasFloat || !hasStr || !hasBool || !hasArr || !hasObj {
		t.Errorf("missing JSON types: int=%v float=%v str=%v bool=%v arr=%v obj=%v",
			hasInt, hasFloat, hasStr, hasBool, hasArr, hasObj)
	}
}

func TestNoBenchShape(t *testing.T) {
	docs := NewNoBench().Generate(1000, 1)
	stats := analyze.Values("nb", docs, analyze.Options{Workers: 1})
	root := stats.Paths[jsonval.RootPath]
	if root.Obj.MinChildren < 19 || root.Obj.MaxChildren > 23 {
		t.Errorf("NoBench attribute count out of shape: %d..%d", root.Obj.MinChildren, root.Obj.MaxChildren)
	}
	// Fixed dense attributes exist everywhere.
	for _, p := range []string{"/str1", "/str2", "/num", "/bool", "/dyn1", "/dyn2", "/nested_arr", "/nested_obj", "/thousandth"} {
		ps := stats.Paths[jsonval.Path(p)]
		if ps == nil || ps.Count != stats.DocCount {
			t.Errorf("dense attribute %s missing or sparse: %+v", p, ps)
		}
	}
	// dyn1 is dynamically typed.
	dyn1 := stats.Paths[jsonval.Path("/dyn1")]
	if dyn1.Int == nil || dyn1.Str == nil {
		t.Errorf("dyn1 not dynamically typed: %+v", dyn1)
	}
	// Sparse attributes: many distinct, each rare.
	sparse := 0
	for p, ps := range stats.Paths {
		if strings.HasPrefix(string(p), "/sparse_") {
			sparse++
			if ps.Count == stats.DocCount {
				t.Errorf("sparse attribute %s is dense", p)
			}
		}
	}
	if sparse < 100 {
		t.Errorf("only %d sparse attributes in 1000 docs", sparse)
	}
	// No nulls anywhere (NoBench has every type except null).
	for p, ps := range stats.Paths {
		if ps.NullCount > 0 {
			t.Errorf("unexpected null at %s", p)
		}
	}
	// Strings share large prefix groups (drives HASPREFIX generation).
	str1 := stats.Paths[jsonval.Path("/str1")].Str
	if str1.Prefixes.Len() == 0 {
		t.Fatalf("no prefixes for str1")
	}
	var maxPrefix int64
	for i := 0; i < str1.Prefixes.Len(); i++ {
		if _, c := str1.Prefixes.At(i); c > maxPrefix {
			maxPrefix = c
		}
	}
	if maxPrefix < stats.DocCount/20 {
		t.Errorf("largest str1 prefix group covers only %d/%d docs", maxPrefix, stats.DocCount)
	}
}

func TestRedditFixedSchema(t *testing.T) {
	docs := NewReddit(RedditOptions{NullByteFraction: -1}).Generate(800, 1)
	stats := analyze.Values("rd", docs, analyze.Options{Workers: 1})
	root := stats.Paths[jsonval.RootPath]
	if root.Obj.MinChildren != 20 || root.Obj.MaxChildren != 20 {
		t.Errorf("Reddit schema not fixed at 20 attributes: %d..%d", root.Obj.MinChildren, root.Obj.MaxChildren)
	}
	for p, ps := range stats.Paths {
		if p == jsonval.RootPath {
			continue
		}
		if p.Depth() != 1 {
			t.Errorf("Reddit has nested path %s", p)
		}
		if ps.Count != stats.DocCount {
			t.Errorf("Reddit attribute %s not in every document", p)
		}
	}
}

func TestRedditNullByteInjection(t *testing.T) {
	docs := NewReddit(RedditOptions{NullByteFraction: 0.05}).Generate(2000, 1)
	found := 0
	for _, d := range docs {
		body, _ := d.Field("body")
		if strings.IndexByte(body.Str(), 0) >= 0 {
			found++
		}
	}
	if found == 0 {
		t.Fatalf("no NUL bytes injected")
	}
	// The NUL must survive serialisation as a unicode escape and reparse.
	var buf bytes.Buffer
	if err := NewReddit(RedditOptions{NullByteFraction: 1}).WriteTo(&buf, 5, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\\u0000") {
		t.Errorf("serialised form lacks the backslash-u0000 escape")
	}
	clean := NewReddit(RedditOptions{NullByteFraction: -1}).Generate(2000, 1)
	for _, d := range clean {
		body, _ := d.Field("body")
		if strings.IndexByte(body.Str(), 0) >= 0 {
			t.Fatalf("disabled injection still produced NUL")
		}
	}
}

func TestWriteFile(t *testing.T) {
	path := t.TempDir() + "/nb.json"
	if err := NewNoBench().WriteFile(path, 100, 5); err != nil {
		t.Fatal(err)
	}
	stats, err := analyze.File("nb", path, analyze.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DocCount != 100 {
		t.Errorf("file holds %d docs", stats.DocCount)
	}
	if err := NewNoBench().WriteFile("/nonexistent-dir/x.json", 1, 1); err == nil {
		t.Errorf("bad path accepted")
	}
}

// TestWriteDocsMatchesWriteFile: writing generated documents produces the
// same bytes as streaming them from the source.
func TestWriteDocsMatchesWriteFile(t *testing.T) {
	dir := t.TempDir()
	src := NewTwitter()
	if err := src.WriteFile(dir+"/a.json", 50, 9); err != nil {
		t.Fatal(err)
	}
	if err := WriteDocs(dir+"/b.json", src.Generate(50, 9)); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(dir + "/a.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dir + "/b.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("WriteDocs bytes differ from WriteFile's")
	}
}
