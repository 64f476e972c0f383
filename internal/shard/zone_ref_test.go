package shard

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonval"
)

// refZoneBuilder is the zone builder this package shipped before the trie:
// it renders every value's path key into buf and probes idx with it. It is
// the oracle TestZoneBuilderMatchesReference compares ZoneBuilder against;
// the two share pathStat.widen, so what is compared is which values land in
// which entry.
type refZoneBuilder struct {
	z   *ZoneMap
	buf []byte // current path key, "/" for the root
}

func newRefZoneBuilder() *refZoneBuilder {
	return &refZoneBuilder{z: &ZoneMap{idx: make(map[string]int32)}}
}

func (b *refZoneBuilder) Add(doc jsonval.Value) {
	b.buf = append(b.buf[:0], '/')
	b.walk(doc, 0, true)
}

func (b *refZoneBuilder) Finish() *ZoneMap {
	z := b.z
	for i := range z.stats {
		sort.Strings(z.stats[i].dict)
	}
	b.z = &ZoneMap{idx: make(map[string]int32)}
	return z
}

func (b *refZoneBuilder) walk(v jsonval.Value, depth int, root bool) {
	st := b.record(v)
	if v.Kind() != jsonval.Object {
		return
	}
	members := v.Members()
	if depth >= maxDepth {
		if len(members) > 0 && st != nil {
			b.z.incomplete = true
		}
		return
	}
	prefix := len(b.buf)
	if root {
		prefix = 0
	}
	for i := range members {
		b.buf = append(b.buf[:prefix], '/')
		b.buf = append(b.buf, members[i].Key...)
		b.walk(members[i].Value, depth+1, false)
	}
	b.buf = b.buf[:prefix]
}

func (b *refZoneBuilder) record(v jsonval.Value) *pathStat {
	z := b.z
	i, ok := z.idx[string(b.buf)]
	if !ok {
		if len(z.stats) >= maxPaths {
			z.incomplete = true
			return nil
		}
		i = int32(len(z.stats))
		z.stats = append(z.stats, newPathStat())
		z.idx[string(b.buf)] = i
	}
	st := &z.stats[i]
	st.widen(v)
	return st
}

func parseDoc(t testing.TB, s string) jsonval.Value {
	t.Helper()
	v, err := jsonval.Parse([]byte(s))
	if err != nil {
		t.Fatalf("%s: %v", s, err)
	}
	return v
}

// collidingDocs are the shapes whose member chains render colliding keys.
func collidingDocs(t testing.TB) []jsonval.Value {
	deep := `"leaf"`
	for i := 0; i < maxDepth+3; i++ {
		deep = `{"d":` + deep + `,"":{"d":1}}`
	}
	var docs []jsonval.Value
	for _, s := range []string{
		`{"":1}`, `{"":{"r":"under-empty"}}`, `{"r":"under-root"}`, `{"":{"":{"":true}}}`, `7`, `"root string"`, `[1,2]`, `{}`,
		`{"a/b":1,"a":{"b":"x"}}`, `{"a":{"b":2.5}}`, `{"a/b":{"c":1}}`, `{"a":{"b/c":"y"}}`, `{"a/":{"":1}}`, `{"a":{"":{"":"z"}}}`,
		`{"k":1,"k":"dup","k":{"n":true},"k":{"n":false}}`, `{"k":{"n":null,"n":[1]}}`,
		deep,
	} {
		docs = append(docs, parseDoc(t, s))
	}
	return docs
}

func assertSameZones(t *testing.T, docs []jsonval.Value, size int) {
	t.Helper()
	got, want := NewZoneBuilder(), newRefZoneBuilder()
	for start := 0; start < len(docs); start += size {
		end := min(start+size, len(docs))
		for _, d := range docs[start:end] {
			got.Add(d)
			want.Add(d)
		}
		gz, wz := got.Finish(), want.Finish()
		if gz.Complete() != wz.Complete() {
			t.Fatalf("shard at %d: Complete() = %v, reference %v", start, gz.Complete(), wz.Complete())
		}
		if len(gz.idx) != len(wz.idx) || len(gz.stats) != len(wz.stats) {
			t.Fatalf("shard at %d: %d paths in %d entries, reference %d in %d", start, len(gz.idx), len(gz.stats), len(wz.idx), len(wz.stats))
		}
		for key := range wz.idx {
			gs, ok := gz.Summary(key)
			ws, _ := wz.Summary(key)
			if !ok || !reflect.DeepEqual(gs, ws) {
				t.Fatalf("shard at %d, path %q: summary %+v (indexed %v), reference %+v", start, key, gs, ok, ws)
			}
		}
	}
}

// TestZoneBuilderMatchesReference: the trie builder indexes, shard by shard,
// exactly the paths the string-keyed builder indexed, with equal summaries —
// on generated corpora, on the key shapes that collide once rendered, past
// the per-shard path cap, and across a trie reset.
func TestZoneBuilderMatchesReference(t *testing.T) {
	collide := collidingDocs(t)
	if _, ok := Build(collide, 0).Shard(0).Zone.Summary("//r"); !ok {
		t.Error(`root→""→"r" no longer renders "//r"`)
	}
	var mixed []jsonval.Value
	for _, src := range []datasets.Source{datasets.NewTwitter(), datasets.NewNoBench(), datasets.NewReddit(datasets.RedditOptions{})} {
		docs := src.Generate(300, 5)
		assertSameZones(t, docs, 64)
		mixed = append(mixed, docs[:40]...)
	}
	mixed = append(mixed, collide...)
	r := rand.New(rand.NewSource(9))
	r.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
	for _, size := range []int{1, 3, 16, len(mixed)} {
		assertSameZones(t, mixed, size)
	}

	// One wide document per shard, every key unique: each shard overflows
	// maxPaths, and the trie passes maxTrieNodes and is rebuilt on the way.
	var wide []jsonval.Value
	for d := 0; d*(maxPaths+100) <= maxTrieNodes+maxPaths; d++ {
		members := make([]jsonval.Member, maxPaths+100)
		for i := range members {
			members[i] = jsonval.Member{Key: fmt.Sprintf("k%d_%d", d, i), Value: jsonval.IntValue(int64(i))}
		}
		wide = append(wide, jsonval.ObjectValue(members...), collide[1], collide[8])
	}
	assertSameZones(t, wide, 3)
}

// TestZoneMapsPinNoDocumentMemory: zone maps built from slab-parsed documents
// keep clones of the strings they index, so dropping the documents frees
// their slab chunks however many dictionary entries pointed into them.
func TestZoneMapsPinNoDocumentMemory(t *testing.T) {
	const docs, payload = 2048, 16 << 10 // 32 MB of string payload
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var dec *jsonval.Decoder
	{
		var sb strings.Builder
		for i := 0; i < docs; i++ {
			fmt.Fprintf(&sb, `{"id":%d,"tag":"t%d","body":"%d%s"}`+"\n", i, i%7, i, strings.Repeat("x", payload))
		}
		dec = jsonval.NewDecoder(strings.NewReader(sb.String()))
	}
	b := NewZoneBuilder()
	var zones []*ZoneMap
	for i := 0; i < docs; i++ {
		doc, err := dec.Decode()
		if err != nil {
			t.Fatal(err)
		}
		b.Add(doc)
		if i%64 == 63 {
			zones = append(zones, b.Finish())
		}
	}
	dec = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Each shard keeps 16 cloned bodies until its dictionary overflows and
	// drops them, so nothing of the 32 MB survives but keys and tags.
	if live := int64(after.HeapAlloc) - int64(before.HeapAlloc); live > 2<<20 {
		t.Errorf("%d KB live with only the zone maps of %d MB of documents reachable", live>>10, docs*payload>>20)
	}
	runtime.KeepAlive(zones)
	runtime.KeepAlive(b)
}
