package jsonstats

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"github.com/joda-explore/betze/internal/jsonval"
)

// mapTable is a string table as the analyser kept it before Counted: a map
// that admits a new key only while it holds fewer than the cap.
type mapTable struct {
	m    map[string]int64
	over bool
}

func (t *mapTable) count(s string, limit int) {
	if _, ok := t.m[s]; !ok && len(t.m) >= limit {
		t.over = true
		return
	}
	t.m[s]++
}

// TestCountedTablesMatchMapSemantics feeds random string streams to
// AddDocument and requires the same keys, counts and overflow flags as the
// map tables did. The caps are small, so most streams fill the tables.
func TestCountedTablesMatchMapSemantics(t *testing.T) {
	vocab := []string{"", "a", "aa1", "aa2", "ab", "abc", "b", "bé", "é", "ée", "zy", "zz"}
	cfg := Config{PrefixLen: 2, MaxPrefixes: 4, MaxValues: 3}
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		got := NewDataset("s", cfg)
		wantPre, wantVal := &mapTable{m: map[string]int64{}}, &mapTable{m: map[string]int64{}}
		for i, n := 0, 1+r.Intn(60); i < n; i++ {
			s := vocab[r.Intn(len(vocab))]
			got.AddDocument(jsonval.ObjectValue(jsonval.Member{Key: "s", Value: jsonval.StringValue(s)}))
			wantPre.count(prefixOf(s, cfg.PrefixLen), cfg.MaxPrefixes)
			wantVal.count(s, cfg.MaxValues)
		}
		st := got.Paths["/s"].Str
		if !reflect.DeepEqual(countedJSON(st.Prefixes), wantPre.m) || st.PrefixOverflow != wantPre.over {
			t.Fatalf("seed %d: prefixes %v overflow=%v, map reference %v overflow=%v",
				seed, countedJSON(st.Prefixes), st.PrefixOverflow, wantPre.m, wantPre.over)
		}
		if !reflect.DeepEqual(countedJSON(st.Values), wantVal.m) || st.ValueOverflow != wantVal.over {
			t.Fatalf("seed %d: values %v overflow=%v, map reference %v overflow=%v",
				seed, countedJSON(st.Values), st.ValueOverflow, wantVal.m, wantVal.over)
		}
		if !inKeyOrder(st.Values) || !inKeyOrder(st.Prefixes) {
			t.Fatalf("seed %d: tables out of key order", seed)
		}
	}
}

// TestViewSharesStringKeys: a view's string tables point at the root's
// arenas and entries, however long the chain of views, and scaling one path
// allocates only the view's statistics and counts, never key storage.
func TestViewSharesStringKeys(t *testing.T) {
	root := scaleCorpus(rand.New(rand.NewSource(5)))
	want := root.Paths["/uniq"].Str
	if want.Values.Len() != DefaultMaxValues || want.Prefixes.Len() != DefaultMaxPrefixes {
		t.Fatalf("corpus tables not full: %d values, %d prefixes", want.Values.Len(), want.Prefixes.Len())
	}
	got := root.Scale("g1", 0.5).Scale("g2", 0.3).Lookup("/uniq").Str
	if unsafe.SliceData(got.Values.arena) != unsafe.SliceData(want.Values.arena) ||
		unsafe.SliceData(got.Values.entries) != unsafe.SliceData(want.Values.entries) ||
		unsafe.SliceData(got.Prefixes.arena) != unsafe.SliceData(want.Prefixes.arena) ||
		unsafe.SliceData(got.Prefixes.entries) != unsafe.SliceData(want.Prefixes.entries) {
		t.Errorf("view copied the root's string keys")
	}
	// Scale allocates the view and its map of scaled paths; Lookup the
	// PathStats, the StringStats, two count slices and the map's storage.
	allocs := testing.AllocsPerRun(50, func() {
		root.Scale("v", 0.5).Lookup("/uniq")
	})
	if allocs > 7 {
		t.Errorf("deriving a view and scaling one string path allocates %.0f times, want at most 7", allocs)
	}
}

// keyCount is one entry of a string table as its readers see it.
type keyCount struct {
	key string
	n   int64
}

// tableOf lists c's entries in key order, through Len and At.
func tableOf(c Counted) []keyCount {
	out := make([]keyCount, c.Len())
	for i := range out {
		out[i].key, out[i].n = c.At(i)
	}
	return out
}

// inKeyOrder reports whether c's keys are strictly increasing.
func inKeyOrder(c Counted) bool {
	t := tableOf(c)
	for i := 1; i < len(t); i++ {
		if t[i-1].key >= t[i].key {
			return false
		}
	}
	return true
}

// sameStats reports whether a and b hold the same statistics. String tables
// compare by content — the same keys in key order with the same counts —
// because an arena lays its keys out in admission order, which depends on
// the order documents and shards arrived in. Everything else, the overflow
// flags and histograms included, must be deeply equal.
func sameStats(a, b *PathStats) bool {
	if a == nil || b == nil {
		return a == b
	}
	ac, bc := *a, *b
	if (a.Str == nil) != (b.Str == nil) {
		return false
	}
	if a.Str != nil {
		if !slices.Equal(tableOf(a.Str.Prefixes), tableOf(b.Str.Prefixes)) ||
			!slices.Equal(tableOf(a.Str.Values), tableOf(b.Str.Values)) {
			return false
		}
		as, bs := *a.Str, *b.Str
		as.Prefixes, as.Values, bs.Prefixes, bs.Values = Counted{}, Counted{}, Counted{}, Counted{}
		ac.Str, bc.Str = &as, &bs
	}
	return reflect.DeepEqual(&ac, &bc)
}

// TestCountedCopiesKeys: a table keeps no alias of the strings it is handed
// (a recycling parser rewrites them with the next document), and a key At
// returned reads the same after later inserts have moved the arena.
func TestCountedCopiesKeys(t *testing.T) {
	var c Counted
	buf := []byte("key-000")
	alias := unsafe.String(&buf[0], len(buf))
	if !c.add(alias, 1, 1000) {
		t.Fatal("first key refused")
	}
	copy(buf, "zzz-999") // the document's memory is reused
	first, _ := c.At(0)
	for i := 1; i < 500; i++ { // moves the arena several times
		c.add(fmt.Sprintf("key-%03d", i), 1, 1000)
	}
	if first != "key-000" {
		t.Errorf("a key read before the arena grew now reads %q", first)
	}
	want := make([]keyCount, 500)
	for i := range want {
		want[i] = keyCount{fmt.Sprintf("key-%03d", i), 1}
	}
	if got := tableOf(c); !slices.Equal(got, want) {
		t.Errorf("table holds %d keys from %v, want key-000..key-499 once each", len(got), got[:min(3, len(got))])
	}
}
