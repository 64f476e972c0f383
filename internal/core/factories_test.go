package core

import (
	"math/rand"
	"testing"

	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// statsFixture builds a dataset summary with one path exhibiting the given
// stats, plus a filler path, over 1000 documents.
func statsFixture(ps *jsonstats.PathStats) *jsonstats.Dataset {
	d := jsonstats.NewDataset("fixture", jsonstats.DefaultConfig())
	d.DocCount = 1000
	d.Paths["/x"] = ps
	d.Paths["/other"] = &jsonstats.PathStats{Count: 1000, Int: &jsonstats.IntStats{Count: 1000, Min: 0, Max: 9}}
	return d
}

func ctxFor(d *jsonstats.Dataset, seed int64) *FactoryContext {
	return &FactoryContext{
		Path:      "/x",
		Stats:     d.Paths["/x"],
		Dataset:   d,
		Rng:       rand.New(rand.NewSource(seed)),
		TargetMin: 0.2,
		TargetMax: 0.9,
		Exclude:   map[string]bool{},
	}
}

func TestFactoryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range DefaultFactories() {
		if seen[f.Name()] {
			t.Errorf("duplicate factory name %q", f.Name())
		}
		seen[f.Name()] = true
	}
	if len(seen) != 9 {
		t.Errorf("expected the paper's nine factories, got %d", len(seen))
	}
}

func TestExistsFactory(t *testing.T) {
	f := existsFactory{}
	partial := statsFixture(&jsonstats.PathStats{Count: 400, NullCount: 400})
	if !f.CanGenerate("/x", partial.Paths["/x"], partial) {
		t.Fatalf("CanGenerate false for partial attribute")
	}
	full := statsFixture(&jsonstats.PathStats{Count: 1000, NullCount: 1000})
	if f.CanGenerate("/x", full.Paths["/x"], full) {
		t.Errorf("CanGenerate true for attribute in every document")
	}
	p, est, ok := f.Generate(ctxFor(partial, 1))
	if !ok || est != 0.4 {
		t.Fatalf("Generate = %v, %g, %v", p, est, ok)
	}
	ctx := ctxFor(partial, 1)
	ctx.Exclude[p.String()] = true
	if _, _, ok := f.Generate(ctx); ok {
		t.Errorf("excluded predicate regenerated")
	}
}

func TestIsStringFactory(t *testing.T) {
	f := isStringFactory{}
	d := statsFixture(&jsonstats.PathStats{Count: 500, Str: &jsonstats.StringStats{Count: 300}})
	if !f.CanGenerate("/x", d.Paths["/x"], d) {
		t.Fatalf("CanGenerate false with string stats")
	}
	_, est, ok := f.Generate(ctxFor(d, 1))
	if !ok || est != 0.3 {
		t.Errorf("est = %g, want 0.3", est)
	}
	empty := statsFixture(&jsonstats.PathStats{Count: 500, NullCount: 500})
	if f.CanGenerate("/x", empty.Paths["/x"], empty) {
		t.Errorf("CanGenerate true without string stats")
	}
}

func TestIntEqFactory(t *testing.T) {
	f := intEqFactory{}
	d := statsFixture(&jsonstats.PathStats{Count: 1000, Int: &jsonstats.IntStats{Count: 1000, Min: 1, Max: 10}})
	p, est, ok := f.Generate(ctxFor(d, 2))
	if !ok {
		t.Fatal("Generate failed")
	}
	eq := p.(query.IntEq)
	if eq.Value < 1 || eq.Value > 10 {
		t.Errorf("value %d outside observed range", eq.Value)
	}
	if est != 0.1 { // 1000/1000 / 10
		t.Errorf("est = %g, want 0.1", est)
	}
	// Degenerate single-value range with that value excluded.
	d2 := statsFixture(&jsonstats.PathStats{Count: 10, Int: &jsonstats.IntStats{Count: 10, Min: 5, Max: 5}})
	ctx := ctxFor(d2, 3)
	ctx.Exclude["'/x' == 5"] = true
	if _, _, ok := f.Generate(ctx); ok {
		t.Errorf("generated the excluded single candidate")
	}
}

func TestFloatCmpFactoryTargetsRange(t *testing.T) {
	f := floatCmpFactory{}
	d := statsFixture(&jsonstats.PathStats{Count: 1000, Float: &jsonstats.FloatStats{Count: 1000, Min: 0, Max: 100}})
	for seed := int64(0); seed < 30; seed++ {
		p, est, ok := f.Generate(ctxFor(d, seed))
		if !ok {
			t.Fatal("Generate failed")
		}
		cmp := p.(query.FloatCmp)
		if cmp.Value < 0 || cmp.Value > 100 {
			t.Errorf("constant %g outside value range", cmp.Value)
		}
		if est < 0.2-1e-9 || est > 0.9+1e-9 {
			t.Errorf("estimate %g outside target range", est)
		}
	}
}

func TestFloatCmpFactoryCombinesIntAndFloat(t *testing.T) {
	f := floatCmpFactory{}
	d := statsFixture(&jsonstats.PathStats{
		Count: 1000,
		Int:   &jsonstats.IntStats{Count: 500, Min: 0, Max: 50},
		Float: &jsonstats.FloatStats{Count: 500, Min: 25, Max: 100},
	})
	if !f.CanGenerate("/x", d.Paths["/x"], d) {
		t.Fatal("CanGenerate false")
	}
	for seed := int64(0); seed < 10; seed++ {
		p, _, ok := f.Generate(ctxFor(d, seed))
		if !ok {
			t.Fatal("Generate failed")
		}
		cmp := p.(query.FloatCmp)
		if cmp.Value < 0 || cmp.Value > 100 {
			t.Errorf("constant %g outside combined range", cmp.Value)
		}
	}
}

func TestFloatCmpFactoryDegenerateRange(t *testing.T) {
	f := floatCmpFactory{}
	d := statsFixture(&jsonstats.PathStats{Count: 600, Float: &jsonstats.FloatStats{Count: 600, Min: 7, Max: 7}})
	p, est, ok := f.Generate(ctxFor(d, 4))
	if !ok {
		t.Fatal("Generate failed")
	}
	cmp := p.(query.FloatCmp)
	if cmp.Value != 7 || (cmp.Op != query.Le && cmp.Op != query.Ge) {
		t.Errorf("degenerate predicate = %s", p)
	}
	if est != 0.6 {
		t.Errorf("est = %g, want the type selectivity 0.6", est)
	}
}

func TestStrEqFactoryPrefersInRangeValues(t *testing.T) {
	f := strEqFactory{}
	d := statsFixture(&jsonstats.PathStats{Count: 1000, Str: &jsonstats.StringStats{
		Count:  1000,
		Values: jsonstats.CountedOf(map[string]int64{"common": 500, "rare": 10, "veryrare": 2}),
	}})
	for seed := int64(0); seed < 10; seed++ {
		p, est, ok := f.Generate(ctxFor(d, seed))
		if !ok {
			t.Fatal("Generate failed")
		}
		if p.(query.StrEq).Value != "common" {
			t.Errorf("picked %s though only \"common\" is in range", p)
		}
		if est != 0.5 {
			t.Errorf("est = %g", est)
		}
	}
}

func TestHasPrefixFactory(t *testing.T) {
	f := hasPrefixFactory{}
	d := statsFixture(&jsonstats.PathStats{Count: 900, Str: &jsonstats.StringStats{
		Count:    900,
		Prefixes: jsonstats.CountedOf(map[string]int64{"http": 600, "xxxx": 5}),
	}})
	p, est, ok := f.Generate(ctxFor(d, 5))
	if !ok {
		t.Fatal("Generate failed")
	}
	if p.(query.HasPrefix).Prefix != "http" || est != 0.6 {
		t.Errorf("got %s with est %g", p, est)
	}
	noPrefix := statsFixture(&jsonstats.PathStats{Count: 900, Str: &jsonstats.StringStats{Count: 900}})
	if f.CanGenerate("/x", noPrefix.Paths["/x"], noPrefix) {
		t.Errorf("CanGenerate true without prefixes")
	}
}

func TestBoolEqFactoryPrefersInRange(t *testing.T) {
	f := boolEqFactory{}
	// true: 0.05, false: 0.85 — only false is in range.
	d := statsFixture(&jsonstats.PathStats{Count: 900, Bool: &jsonstats.BoolStats{Count: 900, TrueCount: 50}})
	for seed := int64(0); seed < 10; seed++ {
		p, est, ok := f.Generate(ctxFor(d, seed))
		if !ok {
			t.Fatal("Generate failed")
		}
		if p.(query.BoolEq).Value != false {
			t.Errorf("picked out-of-range constant %s", p)
		}
		if est != 0.85 {
			t.Errorf("est = %g", est)
		}
	}
}

func TestArrSizeFactory(t *testing.T) {
	f := arrSizeFactory{}
	d := statsFixture(&jsonstats.PathStats{Count: 800, Arr: &jsonstats.ArrayStats{Count: 800, MinSize: 0, MaxSize: 10}})
	p, est, ok := f.Generate(ctxFor(d, 6))
	if !ok {
		t.Fatal("Generate failed")
	}
	as := p.(query.ArrSize)
	if as.Value < 0 || as.Value > 10 {
		t.Errorf("threshold %d outside size range", as.Value)
	}
	if est <= 0 || est > 0.8+1e-9 {
		t.Errorf("est = %g outside (0, 0.8]", est)
	}
	// All arrays the same size: only equality remains.
	d2 := statsFixture(&jsonstats.PathStats{Count: 800, Arr: &jsonstats.ArrayStats{Count: 800, MinSize: 3, MaxSize: 3}})
	p2, est2, ok := f.Generate(ctxFor(d2, 7))
	if !ok {
		t.Fatal("Generate failed")
	}
	if p2.String() != "ARRSIZE('/x') == 3" || est2 != 0.8 {
		t.Errorf("degenerate size predicate = %s, est %g", p2, est2)
	}
}

func TestObjSizeFactory(t *testing.T) {
	f := objSizeFactory{}
	d := statsFixture(&jsonstats.PathStats{Count: 700, Obj: &jsonstats.ObjectStats{Count: 700, MinChildren: 1, MaxChildren: 5}})
	p, _, ok := f.Generate(ctxFor(d, 8))
	if !ok {
		t.Fatal("Generate failed")
	}
	os := p.(query.ObjSize)
	if os.Value < 1 || os.Value > 5 {
		t.Errorf("threshold %d outside child range", os.Value)
	}
}

func TestFilterFactories(t *testing.T) {
	inc := filterFactories([]string{"exists", "bool-eq"}, nil)
	if len(inc) != 2 {
		t.Errorf("include filter kept %d factories", len(inc))
	}
	exc := filterFactories(nil, []string{"exists"})
	if len(exc) != 8 {
		t.Errorf("exclude filter kept %d factories", len(exc))
	}
	both := filterFactories([]string{"exists"}, []string{"exists"})
	if len(both) != 1 || both[0].Name() != "exists" {
		t.Errorf("include should win over exclude")
	}
	all := filterFactories(nil, nil)
	if len(all) != 9 {
		t.Errorf("no filters kept %d factories", len(all))
	}
}

func TestPickTargetFraction(t *testing.T) {
	ctx := ctxFor(statsFixture(&jsonstats.PathStats{Count: 1}), 9)
	if got := pickTargetFraction(ctx, 0); got != 0 {
		t.Errorf("zero type selectivity gave %g", got)
	}
	for i := 0; i < 50; i++ {
		frac := pickTargetFraction(ctx, 0.5)
		// Target [0.2, 0.9] within budget 0.5 -> fraction in [0.4, 1].
		if frac < 0.4-1e-9 || frac > 1+1e-9 {
			t.Errorf("fraction %g outside [0.4, 1]", frac)
		}
	}
}

func TestFloatCmpFactoryUsesHistogramOnSkewedData(t *testing.T) {
	// 90% of values in [0,10), 10% in [10,1000): under the uniform
	// assumption a predicate aiming at selectivity ~0.5 would pick a
	// threshold near 500 and actually select ~0.95 or ~0.05; the
	// histogram places it inside the dense region.
	hist := jsonstats.NewHistogram(16)
	r := rand.New(rand.NewSource(42))
	values := make([]float64, 20000)
	for i := range values {
		if r.Float64() < 0.9 {
			values[i] = r.Float64() * 10
		} else {
			values[i] = 10 + r.Float64()*990
		}
		hist.Observe(values[i])
	}
	ps := &jsonstats.PathStats{
		Count:   20000,
		Float:   &jsonstats.FloatStats{Count: 20000, Min: 0, Max: 1000},
		NumHist: hist,
	}
	d := jsonstats.NewDataset("skewed", jsonstats.DefaultConfig())
	d.DocCount = 20000
	d.Paths["/x"] = ps

	f := floatCmpFactory{}
	inRange := 0
	const trials = 40
	for seed := int64(0); seed < trials; seed++ {
		ctx := &FactoryContext{
			Path: "/x", Stats: ps, Dataset: d,
			Rng:       rand.New(rand.NewSource(seed)),
			TargetMin: 0.2, TargetMax: 0.9,
			Exclude: map[string]bool{},
		}
		p, _, ok := f.Generate(ctx)
		if !ok {
			t.Fatal("Generate failed")
		}
		// True selectivity over the actual values.
		var matched int
		for _, v := range values {
			if p.Eval(jsonval.ObjectValue(jsonval.Member{Key: "x", Value: jsonval.FloatValue(v)})) {
				matched++
			}
		}
		sel := float64(matched) / float64(len(values))
		if sel >= 0.18 && sel <= 0.92 {
			inRange++
		}
	}
	if inRange < trials*3/4 {
		t.Errorf("only %d/%d histogram-guided predicates hit the target range", inRange, trials)
	}

	// Ablation: without the histogram, the uniform assumption misses far
	// more often on this distribution.
	ps.NumHist = nil
	uniformInRange := 0
	for seed := int64(0); seed < trials; seed++ {
		ctx := &FactoryContext{
			Path: "/x", Stats: ps, Dataset: d,
			Rng:       rand.New(rand.NewSource(seed)),
			TargetMin: 0.2, TargetMax: 0.9,
			Exclude: map[string]bool{},
		}
		p, _, ok := f.Generate(ctx)
		if !ok {
			t.Fatal("Generate failed")
		}
		var matched int
		for _, v := range values {
			if p.Eval(jsonval.ObjectValue(jsonval.Member{Key: "x", Value: jsonval.FloatValue(v)})) {
				matched++
			}
		}
		sel := float64(matched) / float64(len(values))
		if sel >= 0.18 && sel <= 0.92 {
			uniformInRange++
		}
	}
	if uniformInRange >= inRange {
		t.Errorf("histogram guidance (%d/%d) no better than uniform (%d/%d) on skewed data",
			inRange, trials, uniformInRange, trials)
	}
}
