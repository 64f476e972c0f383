package jsonstats

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/joda-explore/betze/internal/jsonval"
)

// referenceScale is Scale as it was before derived summaries became views:
// an eager copy of every path. It is the oracle the views are checked
// against and shares no code with scalePathStats.
func referenceScale(d *Dataset, name string, selectivity float64) *Dataset {
	if selectivity < 0 {
		selectivity = 0
	}
	if selectivity > 1 {
		selectivity = 1
	}
	out := NewDataset(name, d.cfg)
	out.DocCount = scaleCount(d.DocCount, selectivity)
	for p, ps := range d.Paths {
		nps := &PathStats{
			Count:     scaleCount(ps.Count, selectivity),
			NullCount: scaleCount(ps.NullCount, selectivity),
		}
		if nps.Count == 0 {
			continue
		}
		if ps.Bool != nil {
			nps.Bool = &BoolStats{
				Count:     scaleCount(ps.Bool.Count, selectivity),
				TrueCount: scaleCount(ps.Bool.TrueCount, selectivity),
			}
		}
		if ps.Int != nil {
			nps.Int = &IntStats{Count: scaleCount(ps.Int.Count, selectivity), Min: ps.Int.Min, Max: ps.Int.Max}
		}
		if ps.Float != nil {
			nps.Float = &FloatStats{Count: scaleCount(ps.Float.Count, selectivity), Min: ps.Float.Min, Max: ps.Float.Max}
		}
		if ps.Str != nil {
			scaled := func(c Counted) map[string]int64 {
				m := map[string]int64{}
				for i := 0; i < c.Len(); i++ {
					k, n := c.At(i)
					if sc := scaleCount(n, selectivity); sc > 0 {
						m[k] = sc
					}
				}
				return m
			}
			nps.Str = &StringStats{
				Count:          scaleCount(ps.Str.Count, selectivity),
				Prefixes:       CountedOf(scaled(ps.Str.Prefixes)),
				Values:         CountedOf(scaled(ps.Str.Values)),
				PrefixOverflow: ps.Str.PrefixOverflow,
				ValueOverflow:  ps.Str.ValueOverflow,
				MinLen:         ps.Str.MinLen,
				MaxLen:         ps.Str.MaxLen,
			}
		}
		if ps.Obj != nil {
			nps.Obj = &ObjectStats{Count: scaleCount(ps.Obj.Count, selectivity), MinChildren: ps.Obj.MinChildren, MaxChildren: ps.Obj.MaxChildren}
		}
		if ps.Arr != nil {
			nps.Arr = &ArrayStats{Count: scaleCount(ps.Arr.Count, selectivity), MinSize: ps.Arr.MinSize, MaxSize: ps.Arr.MaxSize}
		}
		if ps.NumHist != nil {
			nps.NumHist = ps.NumHist.Scale(selectivity)
		}
		out.Paths[p] = nps
	}
	return out
}

// scaleCorpus summarises documents that exercise every statistic a view has
// to scale: all seven types, string tables past their caps, a histogram that
// has fixed its buckets (/dense) and ones still buffering, a path seen once.
func scaleCorpus(r *rand.Rand) *Dataset {
	d := NewDataset("root", DefaultConfig())
	for i := 0; i < 700; i++ {
		members := randomDoc(r).Members()
		members = append(members,
			jsonval.Member{Key: "dense", Value: jsonval.FloatValue(r.ExpFloat64())},
			jsonval.Member{Key: "uniq", Value: jsonval.StringValue(fmt.Sprintf("%05d-%d", r.Intn(100000), i))},
		)
		if i == 13 {
			members = append(members, jsonval.Member{Key: "rare", Value: jsonval.IntValue(7)})
		}
		d.AddDocument(jsonval.ObjectValue(members...))
	}
	return d
}

// attributesOf recomputes the attribute index of an eager summary.
func attributesOf(d *Dataset) []jsonval.Path {
	var out []jsonval.Path
	for p, ps := range d.Paths {
		if p != jsonval.RootPath && ps.Count > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestScaleViewMatchesEagerReference drives random derivation chains through
// Scale and through the eager reference and requires every path of every
// generation to agree exactly: counts after the whole rounding chain,
// surviving strings, overflow flags, histograms and absent paths. Lookups
// happen in random order, and only after the whole chain exists, so a
// view's result cannot depend on which ancestor was asked first.
func TestScaleViewMatchesEagerReference(t *testing.T) {
	selectivities := []float64{0, 1e-4, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, -2, 5}
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		root := scaleCorpus(r)
		if !root.Paths["/uniq"].Str.PrefixOverflow || !root.Paths["/uniq"].Str.ValueOverflow {
			t.Fatal("corpus does not overflow its string tables")
		}
		probes := append(attributesOf(root), jsonval.RootPath, "/absent", "/a/absent")

		depth := 1 + r.Intn(8)
		views, refs := []*Dataset{root}, []*Dataset{root}
		for g := 1; g <= depth; g++ {
			sel := selectivities[r.Intn(len(selectivities))]
			if trial%4 != 0 && sel <= 0 {
				sel = 0.5 // most chains stay non-empty to the end
			}
			name := fmt.Sprintf("g%d", g)
			views = append(views, views[g-1].Scale(name, sel))
			refs = append(refs, referenceScale(refs[g-1], name, sel))
		}

		type probe struct {
			g int
			p jsonval.Path
		}
		var order []probe
		for g := 1; g <= depth; g++ {
			for _, p := range probes {
				order = append(order, probe{g, p})
			}
		}
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, pr := range order {
			got, want := views[pr.g].Lookup(pr.p), refs[pr.g].Paths[pr.p]
			if !sameStats(got, want) {
				t.Fatalf("trial %d generation %d path %q:\n view %+v\n  ref %+v", trial, pr.g, pr.p, got, want)
			}
		}
		for g := 1; g <= depth; g++ {
			v, ref := views[g], refs[g]
			if v.Name != ref.Name || v.DocCount != ref.DocCount || v.Config() != ref.Config() {
				t.Fatalf("trial %d generation %d: header %s/%d, reference %s/%d", trial, g, v.Name, v.DocCount, ref.Name, ref.DocCount)
			}
			if got, _ := v.Attributes(); !reflect.DeepEqual(append([]jsonval.Path(nil), got...), attributesOf(ref)) {
				t.Fatalf("trial %d generation %d: attributes %v, reference %v", trial, g, got, attributesOf(ref))
			}
			m := v.Materialize()
			if len(m.Paths) != len(ref.Paths) || m.DocCount != ref.DocCount {
				t.Fatalf("trial %d generation %d: Materialize differs from the reference", trial, g)
			}
			for p, ps := range m.Paths {
				if !sameStats(ps, ref.Paths[p]) {
					t.Fatalf("trial %d generation %d: Materialize differs from the reference at %q", trial, g, p)
				}
			}
		}
	}
}

// A view encodes as the summary it stands for, not as the nil Paths map it
// carries.
func TestViewEncodesMaterialized(t *testing.T) {
	root := scaleCorpus(rand.New(rand.NewSource(3)))
	view := root.Scale("half", 0.5)
	var got, want bytes.Buffer
	if _, err := view.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := referenceScale(root, "half", 0.5).WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("view encodes differently from the eager reference")
	}
}
