package jsonstats

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/joda-explore/betze/internal/jsonval"
)

func doc(t *testing.T, s string) jsonval.Value {
	t.Helper()
	v, err := jsonval.Parse([]byte(s))
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return v
}

func buildDataset(t *testing.T, docs ...string) *Dataset {
	t.Helper()
	d := NewDataset("test", DefaultConfig())
	for _, s := range docs {
		d.AddDocument(doc(t, s))
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return d
}

func TestAddDocumentCountsPaths(t *testing.T) {
	d := buildDataset(t,
		`{"user":{"name":"alice","age":30},"ok":true}`,
		`{"user":{"name":"bob"},"ok":false}`,
		`{"other":1}`,
	)
	if d.DocCount != 3 {
		t.Fatalf("DocCount = %d", d.DocCount)
	}
	user := d.Paths[jsonval.Path("/user")]
	if user == nil || user.Count != 2 {
		t.Fatalf("/user stats = %+v", user)
	}
	if user.Obj == nil || user.Obj.Count != 2 || user.Obj.MinChildren != 1 || user.Obj.MaxChildren != 2 {
		t.Errorf("/user object stats = %+v", user.Obj)
	}
	name := d.Paths[jsonval.Path("/user/name")]
	if name == nil || name.Count != 2 || name.Str == nil || name.Str.Count != 2 {
		t.Errorf("/user/name stats = %+v", name)
	}
	age := d.Paths[jsonval.Path("/user/age")]
	if age == nil || age.Int == nil || age.Int.Min != 30 || age.Int.Max != 30 {
		t.Errorf("/user/age stats = %+v", age)
	}
	ok := d.Paths[jsonval.Path("/ok")]
	if ok == nil || ok.Bool == nil || ok.Bool.Count != 2 || ok.Bool.TrueCount != 1 {
		t.Errorf("/ok stats = %+v", ok)
	}
	root := d.Paths[jsonval.RootPath]
	if root == nil || root.Count != 3 || root.Obj == nil || root.Obj.Count != 3 {
		t.Errorf("root stats = %+v", root)
	}
}

func TestMixedTypesAtOnePath(t *testing.T) {
	d := buildDataset(t,
		`{"x":1}`, `{"x":2.5}`, `{"x":"s"}`, `{"x":null}`, `{"x":[1,2]}`, `{"x":{"y":1}}`, `{"x":true}`,
	)
	ps := d.Paths[jsonval.Path("/x")]
	if ps.Count != 7 {
		t.Fatalf("count = %d", ps.Count)
	}
	if ps.Int.Count != 1 || ps.Float.Count != 1 || ps.Str.Count != 1 ||
		ps.NullCount != 1 || ps.Arr.Count != 1 || ps.Obj.Count != 1 || ps.Bool.Count != 1 {
		t.Errorf("per-type counts wrong: %+v", ps)
	}
	if _, ok := d.Paths[jsonval.Path("/x/y")]; !ok {
		t.Errorf("nested path under mixed-type attribute missing")
	}
}

func TestArraysAreLeaves(t *testing.T) {
	d := buildDataset(t, `{"a":[{"inner":1},2,3]}`)
	if _, ok := d.Paths[jsonval.Path("/a/inner")]; ok {
		t.Errorf("analyzer recursed into array elements")
	}
	arr := d.Paths[jsonval.Path("/a")].Arr
	if arr == nil || arr.MinSize != 3 || arr.MaxSize != 3 {
		t.Errorf("array stats = %+v", arr)
	}
}

func TestIntFloatRanges(t *testing.T) {
	d := buildDataset(t, `{"n":5}`, `{"n":-3}`, `{"n":10}`, `{"n":2.5}`, `{"n":-7.5}`)
	ps := d.Paths[jsonval.Path("/n")]
	if ps.Int.Min != -3 || ps.Int.Max != 10 || ps.Int.Count != 3 {
		t.Errorf("int stats = %+v", ps.Int)
	}
	if ps.Float.Min != -7.5 || ps.Float.Max != 2.5 || ps.Float.Count != 2 {
		t.Errorf("float stats = %+v", ps.Float)
	}
}

func TestStringPrefixesAndValues(t *testing.T) {
	d := buildDataset(t, `{"s":"alpha"}`, `{"s":"alps"}`, `{"s":"beta"}`, `{"s":"al"}`)
	st := d.Paths[jsonval.Path("/s")].Str
	if got, want := countedJSON(st.Prefixes), map[string]int64{"al": 1, "alph": 1, "alps": 1, "beta": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("prefixes = %v, want %v", got, want)
	}
	if got, want := countedJSON(st.Values), map[string]int64{"al": 1, "alpha": 1, "alps": 1, "beta": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("values = %v, want %v", got, want)
	}
	if st.MinLen != 2 || st.MaxLen != 5 {
		t.Errorf("len bounds = %d..%d", st.MinLen, st.MaxLen)
	}
}

func TestPrefixDoesNotSplitRunes(t *testing.T) {
	d := buildDataset(t, `{"s":"ééé"}`) // 2-byte runes; prefix len 4 falls mid-rune
	st := d.Paths[jsonval.Path("/s")].Str
	for _, e := range tableOf(st.Prefixes) {
		if pre := e.key; !strings.HasPrefix("ééé", pre) {
			t.Errorf("prefix %q splits a rune", pre)
		}
	}
}

func TestStringCapsAndOverflow(t *testing.T) {
	cfg := Config{PrefixLen: 2, MaxPrefixes: 3, MaxValues: 2}
	d := NewDataset("capped", cfg)
	for _, s := range []string{"aa1", "bb2", "cc3", "dd4", "aa5"} {
		d.AddDocument(doc(t, `{"s":"`+s+`"}`))
	}
	st := d.Paths[jsonval.Path("/s")].Str
	if st.Prefixes.Len() != 3 || !st.PrefixOverflow {
		t.Errorf("prefixes = %v overflow=%v", countedJSON(st.Prefixes), st.PrefixOverflow)
	}
	if k, c := st.Prefixes.At(0); k != "aa" || c != 2 {
		t.Errorf("existing prefix not counted past cap: %v", countedJSON(st.Prefixes))
	}
	if st.Values.Len() != 2 || !st.ValueOverflow {
		t.Errorf("values = %v overflow=%v", countedJSON(st.Values), st.ValueOverflow)
	}
}

// TestStringTablesMatchStringKeyedOracle compares AddDocument's capped string
// tables with the plain map code the analyzer ran before the trie, under
// small caps. The vocabulary holds "" (its own prefix), and three member
// chains render /a/b, so a trie node sees its first string when the table it
// shares is already full.
func TestStringTablesMatchStringKeyedOracle(t *testing.T) {
	type table struct {
		prefixes, values    map[string]int64
		prefixOver, valOver bool
	}
	vocab := []string{"", "", "x", "y", "xx", "xy", "yz", "é", "éé", "long-value"}
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{PrefixLen: 1 + r.Intn(3), MaxPrefixes: 1 + r.Intn(4), MaxValues: 1 + r.Intn(4)}
		d := NewDataset("oracle", cfg)
		want := map[jsonval.Path]*table{}
		count := func(p jsonval.Path, s string) jsonval.Value {
			tb := want[p]
			if tb == nil {
				tb = &table{prefixes: map[string]int64{}, values: map[string]int64{}}
				want[p] = tb
			}
			pre := prefixOf(s, cfg.PrefixLen)
			if _, ok := tb.prefixes[pre]; ok || len(tb.prefixes) < cfg.MaxPrefixes {
				tb.prefixes[pre]++
			} else {
				tb.prefixOver = true
			}
			if _, ok := tb.values[s]; ok || len(tb.values) < cfg.MaxValues {
				tb.values[s]++
			} else {
				tb.valOver = true
			}
			return jsonval.StringValue(s)
		}
		for i := 0; i < 40; i++ {
			s := vocab[r.Intn(len(vocab))]
			var v jsonval.Value
			switch r.Intn(4) {
			case 0:
				v = jsonval.ObjectValue(jsonval.Member{Key: "a/b", Value: count("/a/b", s)})
			case 1:
				v = jsonval.ObjectValue(jsonval.Member{Key: "a", Value: jsonval.ObjectValue(jsonval.Member{Key: "b", Value: count("/a/b", s)})})
			case 2:
				v = jsonval.ObjectValue(jsonval.Member{Key: "", Value: jsonval.ObjectValue(jsonval.Member{Key: "a/b", Value: count("//a/b", s)})})
			default:
				v = jsonval.ObjectValue(jsonval.Member{Key: "c", Value: count("/c", s)})
			}
			d.AddDocument(v)
		}
		for p, tb := range want {
			st := d.Paths[p].Str
			if !reflect.DeepEqual(countedJSON(st.Prefixes), tb.prefixes) || st.PrefixOverflow != tb.prefixOver {
				t.Fatalf("seed %d %+v %s: prefixes %v overflow=%v, oracle %v overflow=%v", seed, cfg, p, countedJSON(st.Prefixes), st.PrefixOverflow, tb.prefixes, tb.prefixOver)
			}
			if !reflect.DeepEqual(countedJSON(st.Values), tb.values) || st.ValueOverflow != tb.valOver {
				t.Fatalf("seed %d %+v %s: values %v overflow=%v, oracle %v overflow=%v", seed, cfg, p, countedJSON(st.Values), st.ValueOverflow, tb.values, tb.valOver)
			}
		}
	}
	// Spelled out: x and y fill the table through the member "a/b"; the chain
	// a→b, a node of its own, then brings "".
	d := NewDataset("empty-last", Config{PrefixLen: 4, MaxPrefixes: 2, MaxValues: 2})
	for _, s := range []string{`{"a/b":"x"}`, `{"a/b":"y"}`, `{"a":{"b":""}}`} {
		d.AddDocument(doc(t, s))
	}
	st := d.Paths[jsonval.Path("/a/b")].Str
	if st.Values.Len() != 2 || !st.ValueOverflow || st.Prefixes.Len() != 2 || !st.PrefixOverflow {
		t.Errorf("\"\" admitted past the caps: values %v overflow=%v, prefixes %v overflow=%v", countedJSON(st.Values), st.ValueOverflow, countedJSON(st.Prefixes), st.PrefixOverflow)
	}
}

// randomDoc produces a small random object document.
func randomDoc(r *rand.Rand) jsonval.Value {
	keys := []string{"a", "b", "c", "d", "e"}
	n := 1 + r.Intn(4)
	members := make([]jsonval.Member, 0, n)
	used := map[string]bool{}
	for i := 0; i < n; i++ {
		k := keys[r.Intn(len(keys))]
		if used[k] {
			continue
		}
		used[k] = true
		var v jsonval.Value
		switch r.Intn(7) {
		case 0:
			v = jsonval.NullValue()
		case 1:
			v = jsonval.BoolValue(r.Intn(2) == 0)
		case 2:
			v = jsonval.IntValue(int64(r.Intn(100) - 50))
		case 3:
			v = jsonval.FloatValue(r.Float64()*10 - 5)
		case 4:
			v = jsonval.StringValue(string(rune('a'+r.Intn(5))) + "xyz"[:r.Intn(4)])
		case 5:
			v = jsonval.ArrayValue(jsonval.IntValue(1))
		default:
			v = jsonval.ObjectValue(jsonval.Member{Key: "in", Value: jsonval.IntValue(int64(r.Intn(10)))})
		}
		members = append(members, jsonval.Member{Key: k, Value: v})
	}
	return jsonval.ObjectValue(members...)
}

func assertDatasetsEqual(t *testing.T, want, got *Dataset) {
	t.Helper()
	if want.DocCount != got.DocCount {
		t.Fatalf("DocCount %d != %d", got.DocCount, want.DocCount)
	}
	if len(want.Paths) != len(got.Paths) {
		t.Fatalf("path count %d != %d", len(got.Paths), len(want.Paths))
	}
	for p, wps := range want.Paths {
		gps := got.Paths[p]
		if gps == nil {
			t.Fatalf("missing path %s", p)
		}
		// Histograms are compared by their totals, everything else exactly.
		wc, gc := *wps, *gps
		wc.NumHist, gc.NumHist = nil, nil
		if !sameStats(&wc, &gc) {
			t.Fatalf("path %s: %+v != %+v (str: %+v vs %+v)", p, gps, wps, gps.Str, wps.Str)
		}
		switch {
		case (wps.NumHist == nil) != (gps.NumHist == nil):
			t.Fatalf("path %s: histogram presence differs", p)
		case wps.NumHist != nil && wps.NumHist.Total != gps.NumHist.Total:
			t.Fatalf("path %s: histogram totals %d != %d", p, gps.NumHist.Total, wps.NumHist.Total)
		}
	}
}

func TestScale(t *testing.T) {
	d := buildDataset(t,
		`{"n":1,"s":"aaa"}`, `{"n":2,"s":"aab"}`, `{"n":3,"s":"bbb"}`, `{"n":4}`,
	)
	half := d.Scale("half", 0.5)
	if half.Name != "half" {
		t.Errorf("scaled name = %q", half.Name)
	}
	if half.DocCount != 2 {
		t.Errorf("scaled DocCount = %d", half.DocCount)
	}
	n := half.Lookup("/n")
	if n.Count != 2 || n.Int.Min != 1 || n.Int.Max != 4 {
		t.Errorf("scaled /n = %+v int=%+v", n, n.Int)
	}
	s := half.Lookup("/s")
	if s.Count != 2 { // round(3*0.5)=2
		t.Errorf("scaled /s count = %d", s.Count)
	}
}

func TestScaleTinySelectivityKeepsPaths(t *testing.T) {
	d := buildDataset(t, `{"a":1}`, `{"a":2}`)
	tiny := d.Scale("tiny", 0.0001)
	if ps := tiny.Lookup("/a"); ps == nil || ps.Count < 1 {
		t.Errorf("tiny scale dropped path stats: %+v", ps)
	}
}

func TestScaleClampsFactor(t *testing.T) {
	d := buildDataset(t, `{"a":1}`)
	if up := d.Scale("up", 5); up.DocCount != 1 {
		t.Errorf("factor > 1 not clamped: %d", up.DocCount)
	}
	if down := d.Scale("down", -2); down.DocCount != 0 {
		t.Errorf("factor < 0 not clamped: %d", down.DocCount)
	}
}

func TestAttributesSortedWithoutRoot(t *testing.T) {
	d := buildDataset(t, `{"b":1,"a":{"z":1,"m":2},"c":3}`)
	d.Paths["/gone"] = &PathStats{} // Count 0: not an attribute
	got, cum := d.Attributes()
	want := []jsonval.Path{"/a", "/a/m", "/a/z", "/b", "/c"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("attributes = %v, want %v", got, want)
	}
	if len(cum) != len(got) || cum[0] != 1 || cum[1] != 1.5 || cum[4] != 4 {
		t.Errorf("cumulative 1/depth = %v", cum)
	}
	// Folding more documents in rebuilds the index.
	d.AddDocument(doc(t, `{"aa":1}`))
	if got, _ := d.Attributes(); len(got) != 6 || got[3] != "/aa" {
		t.Errorf("attributes after AddDocument = %v", got)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := buildDataset(t, `{"a":1}`)
	d.Paths[jsonval.Path("/a")].Int.Min = 99 // > max
	if err := d.Validate(); err == nil {
		t.Errorf("Validate accepted min > max")
	}
	d2 := buildDataset(t, `{"a":true}`)
	d2.Paths[jsonval.Path("/a")].Bool.TrueCount = 5
	if err := d2.Validate(); err == nil {
		t.Errorf("Validate accepted true count > count")
	}
	d3 := buildDataset(t, `{"a":1}`)
	d3.Paths[jsonval.Path("/a")].Count = 7
	if err := d3.Validate(); err == nil {
		t.Errorf("Validate accepted inconsistent typed sums")
	}
}

func TestConfigDefaults(t *testing.T) {
	d := NewDataset("d", Config{})
	cfg := d.Config()
	if cfg.PrefixLen != DefaultPrefixLen || cfg.MaxPrefixes != DefaultMaxPrefixes || cfg.MaxValues != DefaultMaxValues {
		t.Errorf("zero config not defaulted: %+v", cfg)
	}
}
