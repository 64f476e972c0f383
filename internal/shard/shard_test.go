package shard

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/datasets"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// --- generators (mirroring internal/engine's differential fuzz) ---------

var fuzzPaths = []jsonval.Path{"/a", "/b", "/c", "/nest/x", "/nest/y", "/arr", "/obj", "/missing", ""}

func fuzzString(r *rand.Rand) string {
	base := []string{"alpha", "beta", "gamma", "um läut", "x", ""}
	return base[r.Intn(len(base))]
}

func fuzzValue(r *rand.Rand, depth int) jsonval.Value {
	max := 7
	if depth <= 0 {
		max = 5
	}
	switch r.Intn(max) {
	case 0:
		return jsonval.NullValue()
	case 1:
		return jsonval.BoolValue(r.Intn(2) == 0)
	case 2:
		return jsonval.IntValue(int64(r.Intn(20) - 10))
	case 3:
		return jsonval.FloatValue(float64(r.Intn(200)-100) / 2)
	case 4:
		return jsonval.StringValue(fuzzString(r))
	case 5:
		n := r.Intn(5)
		elems := make([]jsonval.Value, n)
		for i := range elems {
			elems[i] = fuzzValue(r, depth-1)
		}
		return jsonval.ArrayValue(elems...)
	default:
		n := r.Intn(4)
		members := make([]jsonval.Member, 0, n)
		for i := 0; i < n; i++ {
			// No dedup: duplicate keys exercise the first-match-wins
			// Lookup semantics against the zone's widened entries.
			k := string(rune('p' + r.Intn(4)))
			members = append(members, jsonval.Member{Key: k, Value: fuzzValue(r, depth-1)})
		}
		return jsonval.ObjectValue(members...)
	}
}

func fuzzDoc(r *rand.Rand) jsonval.Value {
	var members []jsonval.Member
	for _, key := range []string{"a", "b", "c", ""} {
		if r.Intn(4) > 0 {
			members = append(members, jsonval.Member{Key: key, Value: fuzzValue(r, 1)})
		}
	}
	if r.Intn(2) == 0 {
		members = append(members, jsonval.Member{Key: "nest", Value: jsonval.ObjectValue(
			jsonval.Member{Key: "x", Value: fuzzValue(r, 1)},
			jsonval.Member{Key: "y", Value: fuzzValue(r, 1)},
		)})
	}
	if r.Intn(2) == 0 {
		n := r.Intn(5)
		elems := make([]jsonval.Value, n)
		for i := range elems {
			elems[i] = fuzzValue(r, 0)
		}
		members = append(members, jsonval.Member{Key: "arr", Value: jsonval.ArrayValue(elems...)})
	}
	if r.Intn(2) == 0 {
		members = append(members, jsonval.Member{Key: "obj", Value: fuzzValue(r, 1)})
	}
	return jsonval.ObjectValue(members...)
}

func fuzzPredicate(r *rand.Rand, depth int) query.Predicate {
	if depth > 0 && r.Intn(3) == 0 {
		l, rr := fuzzPredicate(r, depth-1), fuzzPredicate(r, depth-1)
		if r.Intn(2) == 0 {
			return query.And{Left: l, Right: rr}
		}
		return query.Or{Left: l, Right: rr}
	}
	p := fuzzPaths[r.Intn(len(fuzzPaths))]
	ops := []query.CmpOp{query.Lt, query.Le, query.Gt, query.Ge, query.Eq}
	switch r.Intn(9) {
	case 0:
		return query.Exists{Path: p}
	case 1:
		return query.IsString{Path: p}
	case 2:
		return query.IntEq{Path: p, Value: int64(r.Intn(20) - 10)}
	case 3:
		return query.FloatCmp{Path: p, Op: ops[r.Intn(len(ops))], Value: float64(r.Intn(200)-100) / 4}
	case 4:
		return query.StrEq{Path: p, Value: fuzzString(r)}
	case 5:
		s := fuzzString(r)
		n := r.Intn(3)
		if n > len(s) {
			n = len(s)
		}
		return query.HasPrefix{Path: p, Prefix: s[:n]}
	case 6:
		return query.BoolEq{Path: p, Value: r.Intn(2) == 0}
	case 7:
		return query.ArrSize{Path: p, Op: ops[r.Intn(len(ops))], Value: r.Intn(5)}
	default:
		return query.ObjSize{Path: p, Op: ops[r.Intn(len(ops))], Value: r.Intn(5)}
	}
}

// --- chunking ------------------------------------------------------------

func TestBuildChunking(t *testing.T) {
	docs := make([]jsonval.Value, 10)
	for i := range docs {
		docs[i] = jsonval.ObjectValue(jsonval.Member{Key: "i", Value: jsonval.IntValue(int64(i))})
	}
	cases := []struct {
		size string
		n    int
		want []int // shard lengths
	}{
		{"one", 1, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{"bigger-than-dataset", 64, []int{10}},
		{"non-multiple", 4, []int{4, 4, 2}},
		{"exact-multiple", 5, []int{5, 5}},
		{"default", 0, []int{10}},
	}
	for _, tc := range cases {
		s := Build(docs, tc.n)
		if s.Len() != len(docs) || len(s.Docs()) != len(docs) {
			t.Fatalf("%s: Len = %d, want %d", tc.size, s.Len(), len(docs))
		}
		if s.NumShards() != len(tc.want) {
			t.Fatalf("%s: %d shards, want %d", tc.size, s.NumShards(), len(tc.want))
		}
		start := 0
		for i, wantLen := range tc.want {
			sh := s.Shard(i)
			if sh.Start != start || len(sh.Docs) != wantLen {
				t.Fatalf("%s: shard %d start=%d len=%d, want start=%d len=%d",
					tc.size, i, sh.Start, len(sh.Docs), start, wantLen)
			}
			if sh.Zone == nil || !sh.Zone.Complete() {
				t.Fatalf("%s: shard %d has no complete zone map", tc.size, i)
			}
			for j := range sh.Docs {
				if !sh.Docs[j].Equal(docs[start+j]) {
					t.Fatalf("%s: shard %d doc %d differs from source", tc.size, i, j)
				}
			}
			start += wantLen
		}
	}
}

func TestViewHasNoZones(t *testing.T) {
	docs := []jsonval.Value{jsonval.IntValue(1), jsonval.IntValue(2), jsonval.IntValue(3)}
	v := View(docs, 2)
	if v.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", v.NumShards())
	}
	for i := 0; i < v.NumShards(); i++ {
		if v.Shard(i).Zone != nil {
			t.Fatalf("view shard %d has a zone map", i)
		}
	}
	// A nil zone never prunes and is never complete.
	var z *ZoneMap
	if z.Complete() {
		t.Error("nil zone reports complete")
	}
	if _, ok := z.Summary("/a"); ok {
		t.Error("nil zone returned a summary")
	}
	if query.Compile(query.Exists{Path: "/missing"}).CanSkip(v.Shard(0).Zone) {
		t.Error("predicate skipped a view (zoneless) shard")
	}
}

func TestBuildEmptyDataset(t *testing.T) {
	s := Build(nil, 8)
	if s.Len() != 0 || s.NumShards() != 0 {
		t.Fatalf("empty Build: Len=%d NumShards=%d", s.Len(), s.NumShards())
	}
}

// --- zone-map construction properties ------------------------------------

// refPaths enumerates every Lookup-resolvable path of doc exactly as
// jsonval.Path resolves it (objects only, first member wins on duplicate
// keys), invoking visit with the zone-map key and the value.
func refPaths(doc jsonval.Value, visit func(key string, v jsonval.Value)) {
	var walk func(key string, v jsonval.Value, root bool)
	walk = func(key string, v jsonval.Value, root bool) {
		visit(key, v)
		if v.Kind() != jsonval.Object {
			return
		}
		members := v.Members()
		seen := map[string]bool{}
		for i := range members {
			if seen[members[i].Key] {
				continue
			}
			seen[members[i].Key] = true
			child := key + "/" + members[i].Key
			if root {
				child = "/" + members[i].Key
			}
			walk(child, members[i].Value, false)
		}
	}
	walk("/", doc, true)
}

// TestZoneMapInvariantsFuzz is the per-document property test: for every
// generated shard, every resolvable path of every document it contains must
// be covered by the zone map — path indexed, kind bit set, numerics inside
// min/max, strings in a complete dictionary, booleans' seen bits set, and
// array/object lengths inside their bounds.
func TestZoneMapInvariantsFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for round := 0; round < 40; round++ {
		docs := make([]jsonval.Value, 30+r.Intn(100))
		for i := range docs {
			docs[i] = fuzzDoc(r)
		}
		size := []int{1, 3, 7, 16, 1000}[r.Intn(5)]
		s := Build(docs, size)
		for si := 0; si < s.NumShards(); si++ {
			sh := s.Shard(si)
			for di, doc := range sh.Docs {
				refPaths(doc, func(key string, v jsonval.Value) {
					sum, ok := sh.Zone.Summary(key)
					if !ok {
						if sh.Zone.Complete() {
							t.Fatalf("round %d shard %d doc %d: path %q resolvable but unindexed in a complete zone", round, si, di, key)
						}
						return
					}
					if !sum.Kinds.Has(v.Kind()) {
						t.Fatalf("round %d shard %d doc %d: path %q kind %v not in bitmap", round, si, di, key, v.Kind())
					}
					switch v.Kind() {
					case jsonval.Int, jsonval.Float:
						n, _ := v.Number()
						if n < sum.NumMin || n > sum.NumMax {
							t.Fatalf("path %q: value %v outside [%v, %v]", key, n, sum.NumMin, sum.NumMax)
						}
					case jsonval.String:
						if sum.DictComplete {
							found := false
							for _, d := range sum.Dict {
								if d == v.Str() {
									found = true
									break
								}
							}
							if !found {
								t.Fatalf("path %q: string %q missing from complete dictionary %v", key, v.Str(), sum.Dict)
							}
						}
					case jsonval.Bool:
						if v.Bool() && !sum.TrueSeen || !v.Bool() && !sum.FalseSeen {
							t.Fatalf("path %q: bool %v not recorded", key, v.Bool())
						}
					case jsonval.Array:
						if v.Len() < sum.ArrMin || v.Len() > sum.ArrMax {
							t.Fatalf("path %q: array len %d outside [%d, %d]", key, v.Len(), sum.ArrMin, sum.ArrMax)
						}
					case jsonval.Object:
						if v.Len() < sum.ObjMin || v.Len() > sum.ObjMax {
							t.Fatalf("path %q: object len %d outside [%d, %d]", key, v.Len(), sum.ObjMin, sum.ObjMax)
						}
					}
				})
			}
		}
	}
}

func TestZoneDictionarySortedAndDeduplicated(t *testing.T) {
	b := NewZoneBuilder()
	for _, s := range []string{"cc", "aa", "bb", "aa", "cc"} {
		b.Add(jsonval.ObjectValue(jsonval.Member{Key: "s", Value: jsonval.StringValue(s)}))
	}
	z := b.Finish()
	sum, ok := z.Summary("/s")
	if !ok || !sum.DictComplete {
		t.Fatalf("no complete dictionary for /s: ok=%v complete=%v", ok, sum.DictComplete)
	}
	if got, want := fmt.Sprint(sum.Dict), fmt.Sprint([]string{"aa", "bb", "cc"}); got != want {
		t.Fatalf("Dict = %v, want %v", got, want)
	}
}

func TestZoneDictionaryOverflow(t *testing.T) {
	b := NewZoneBuilder()
	for i := 0; i <= maxDict; i++ {
		b.Add(jsonval.ObjectValue(jsonval.Member{Key: "s", Value: jsonval.StringValue(fmt.Sprintf("v%03d", i))}))
	}
	z := b.Finish()
	sum, ok := z.Summary("/s")
	if !ok {
		t.Fatal("/s unindexed")
	}
	if sum.DictComplete {
		t.Fatalf("dictionary with %d distinct strings still complete", maxDict+1)
	}
	// An overflowed dictionary must not unlock string pruning, but the zone
	// itself stays complete (path coverage is unaffected).
	if !z.Complete() {
		t.Error("dictionary overflow marked the whole zone incomplete")
	}
	if query.Compile(query.StrEq{Path: "/s", Value: "not-there"}).CanSkip(z) {
		t.Error("string equality pruned through an overflowed dictionary")
	}
}

func TestZoneDepthCapMarksIncomplete(t *testing.T) {
	deep := jsonval.StringValue("leaf")
	for i := 0; i < maxDepth+2; i++ {
		deep = jsonval.ObjectValue(jsonval.Member{Key: "d", Value: deep})
	}
	b := NewZoneBuilder()
	b.Add(deep)
	z := b.Finish()
	if z.Complete() {
		t.Fatal("zone over a too-deep document reports complete")
	}
	// The un-indexed deep path must not prune via the absent-path proof.
	path := jsonval.Path("/" + strings.Repeat("d/", maxDepth+1) + "d")
	if query.Compile(query.Exists{Path: path}).CanSkip(z) {
		t.Error("EXISTS pruned through an incomplete zone")
	}
}

func TestZonePathCapMarksIncomplete(t *testing.T) {
	b := NewZoneBuilder()
	members := make([]jsonval.Member, maxPaths+8)
	for i := range members {
		members[i] = jsonval.Member{Key: fmt.Sprintf("k%05d", i), Value: jsonval.IntValue(int64(i))}
	}
	b.Add(jsonval.ObjectValue(members...))
	// A shard of documents keyed by identifier: every document brings member
	// chains of its own. Past the cap they must cost the builder nothing it
	// keeps until Finish.
	for d := 0; d < 64; d++ {
		for i := range members {
			members[i].Key = fmt.Sprintf("id%d_%d", d, i)
			members[i].Value = jsonval.ObjectValue(jsonval.Member{Key: "n", Value: jsonval.IntValue(1)})
		}
		b.Add(jsonval.ObjectValue(members...))
	}
	if len(b.slots) > maxPaths || b.nodes > maxPaths {
		t.Errorf("one shard grew the builder to %d slots and %d trie nodes, cap %d", len(b.slots), b.nodes, maxPaths)
	}
	z := b.Finish()
	if z.Complete() {
		t.Fatalf("zone with %d paths reports complete", len(members)+1)
	}
	if len(z.stats) != maxPaths || len(z.idx) != maxPaths {
		t.Errorf("zone indexes %d paths in %d entries, cap %d", len(z.idx), len(z.stats), maxPaths)
	}
}

// --- prune differential --------------------------------------------------

// TestPruneDifferentialFuzz is the in-package half of the prune-correctness
// battery: across random datasets, shard sizes and predicate trees, a
// shard-pruned scan (CanSkip + EvalBlock over surviving shards) must keep
// exactly the documents a full per-document interpreted scan keeps. It also
// checks the prune proof directly: a skipped shard must contain no matching
// document.
func TestPruneDifferentialFuzz(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	var skips, scans int
	for round := 0; round < 150; round++ {
		docs := make([]jsonval.Value, 20+r.Intn(120))
		for i := range docs {
			docs[i] = fuzzDoc(r)
		}
		size := []int{1, 5, 16, 64, 1000}[r.Intn(5)]
		s := Build(docs, size)
		for q := 0; q < 6; q++ {
			p := fuzzPredicate(r, 2)
			c := query.Compile(p)
			ev := c.Evaluator()
			keep := make([]bool, size)
			var pruned []int
			for si := 0; si < s.NumShards(); si++ {
				sh := s.Shard(si)
				if c.CanSkip(sh.Zone) {
					skips++
					for di, d := range sh.Docs {
						if p.Eval(d) {
							t.Fatalf("round %d: pruned shard %d holds matching doc %d for %s", round, si, sh.Start+di, p)
						}
					}
					continue
				}
				scans++
				kb := keep[:len(sh.Docs)]
				ev.EvalBlock(sh.Docs, kb)
				for di := range sh.Docs {
					if kb[di] {
						pruned = append(pruned, sh.Start+di)
					}
				}
			}
			var full []int
			for i, d := range docs {
				if p.Eval(d) {
					full = append(full, i)
				}
			}
			if fmt.Sprint(pruned) != fmt.Sprint(full) {
				t.Fatalf("round %d: pruned scan kept %v, full scan kept %v for %s", round, pruned, full, p)
			}
		}
	}
	if skips == 0 {
		t.Fatal("prune differential never skipped a shard — the test is vacuous")
	}
	if scans == 0 {
		t.Fatal("prune differential never scanned a shard")
	}
}

// TestClusteredCorpusSkips keeps the profitable case of the zone kernels the
// benchmark ledger replays: on a Twitter corpus sorted by
// /user/followers_count, drill-down predicates that band that attribute are
// proven empty by CanSkip on at least 80 % of the documents' shards.
func TestClusteredCorpusSkips(t *testing.T) {
	const seed = 123
	docs := datasets.NewTwitter().Generate(800, seed)
	steps := jsonval.Path("/user/followers_count").Segments()
	followers := func(d jsonval.Value) float64 {
		v, ok := jsonval.LookupSteps(d, steps)
		if !ok {
			return -1
		}
		n, _ := v.Number()
		return n
	}
	sort.SliceStable(docs, func(i, j int) bool { return followers(docs[i]) < followers(docs[j]) })
	st := Build(docs, 64) // a dozen shards

	r := rand.New(rand.NewSource(seed + 1))
	langs := []string{"en", "de", "ja", "es", "pt"}
	const preds = 16
	skipped := 0
	for range preds {
		lo := float64(r.Intn(940000))
		var p query.Predicate = query.And{
			Left:  query.FloatCmp{Path: "/user/followers_count", Op: query.Ge, Value: lo},
			Right: query.FloatCmp{Path: "/user/followers_count", Op: query.Lt, Value: lo + float64(10000+r.Intn(50000))},
		}
		switch r.Intn(3) {
		case 1:
			p = query.And{Left: p, Right: query.BoolEq{Path: "/user/verified", Value: true}}
		case 2:
			p = query.And{Left: p, Right: query.StrEq{Path: "/user/lang", Value: langs[r.Intn(len(langs))]}}
		}
		c := query.Compile(p)
		for s := 0; s < st.NumShards(); s++ {
			if sh := st.Shard(s); c.CanSkip(sh.Zone) {
				skipped += len(sh.Docs)
			}
		}
	}
	if share := float64(skipped) / float64(preds*st.Len()); share < 0.8 {
		t.Errorf("clustered corpus: CanSkip ruled out %.1f%% of documents, want >= 80%%", share*100)
	}
}

// BenchmarkZoneBuild prices what zone construction adds to a dataset load:
// one full walk and summary fold per document.
func BenchmarkZoneBuild(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	docs := make([]jsonval.Value, 2048)
	for i := range docs {
		docs[i] = fuzzDoc(r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(docs, DefaultSize)
	}
}

// BenchmarkCanSkip prices the per-shard prune decision a scan pays before
// touching any document.
func BenchmarkCanSkip(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	docs := make([]jsonval.Value, 2048)
	for i := range docs {
		docs[i] = fuzzDoc(r)
	}
	st := Build(docs, DefaultSize)
	compiled := query.Compile(query.And{
		Left:  query.FloatCmp{Path: "/a", Op: query.Ge, Value: 1000},
		Right: query.Exists{Path: "/nest/x"},
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < st.NumShards(); s++ {
			compiled.CanSkip(st.Shard(s).Zone)
		}
	}
}
