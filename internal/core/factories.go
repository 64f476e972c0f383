package core

import (
	"math"

	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// existsFactory builds EXISTS(<ptr>) predicates. It requires the attribute
// to be present in a proper subset of the documents — on a fixed-schema
// dataset existence never discriminates, which is why the paper's Reddit
// sessions contain no existence predicates (Fig. 8).
type existsFactory struct{}

func (existsFactory) Name() string { return "exists" }

func (existsFactory) CanGenerate(_ jsonval.Path, ps *jsonstats.PathStats, ds *jsonstats.Dataset) bool {
	return ps.Count > 0 && ps.Count < ds.DocCount
}

func (existsFactory) Generate(ctx *FactoryContext) (query.Predicate, float64, bool) {
	p := query.Exists{Path: ctx.Path}
	if ctx.excluded(p) {
		return nil, 0, false
	}
	return p, float64(ctx.Stats.Count) / ctx.docCount(), true
}

// isStringFactory builds ISSTRING(<ptr>) predicates.
type isStringFactory struct{}

func (isStringFactory) Name() string { return "isstring" }

func (isStringFactory) CanGenerate(_ jsonval.Path, ps *jsonstats.PathStats, _ *jsonstats.Dataset) bool {
	return ps.Str != nil && ps.Str.Count > 0
}

func (isStringFactory) Generate(ctx *FactoryContext) (query.Predicate, float64, bool) {
	p := query.IsString{Path: ctx.Path}
	if ctx.excluded(p) {
		return nil, 0, false
	}
	return p, float64(ctx.Stats.Str.Count) / ctx.docCount(), true
}

// intEqFactory builds <ptr> == <int> predicates, assuming integer values
// are uniform over the observed [min, max] range.
type intEqFactory struct{}

func (intEqFactory) Name() string { return "int-eq" }

func (intEqFactory) CanGenerate(_ jsonval.Path, ps *jsonstats.PathStats, _ *jsonstats.Dataset) bool {
	return ps.Int != nil && ps.Int.Count > 0
}

func (intEqFactory) Generate(ctx *FactoryContext) (query.Predicate, float64, bool) {
	st := ctx.Stats.Int
	span := float64(st.Max) - float64(st.Min) + 1
	est := float64(st.Count) / ctx.docCount() / span
	for try := 0; try < 8; try++ {
		v := st.Min
		if st.Max > st.Min {
			v = st.Min + int64(ctx.Rng.Float64()*float64(st.Max-st.Min+1))
			if v > st.Max {
				v = st.Max
			}
		}
		p := query.IntEq{Path: ctx.Path, Value: v}
		if !ctx.excluded(p) {
			return p, est, true
		}
		if st.Max == st.Min {
			break // only one candidate value
		}
	}
	return nil, 0, false
}

// floatCmpFactory builds <ptr> <comparison> <float> predicates over the
// combined numeric (integer and floating-point) value range, interpolating
// the constant to hit the target selectivity under a uniform assumption —
// the paper's "[path] >= 5" example.
type floatCmpFactory struct{}

func (floatCmpFactory) Name() string { return "float-cmp" }

func (floatCmpFactory) CanGenerate(_ jsonval.Path, ps *jsonstats.PathStats, _ *jsonstats.Dataset) bool {
	return (ps.Float != nil && ps.Float.Count > 0) || (ps.Int != nil && ps.Int.Count > 0)
}

func (floatCmpFactory) Generate(ctx *FactoryContext) (query.Predicate, float64, bool) {
	var numCount int64
	lo, hi := math.Inf(1), math.Inf(-1)
	if st := ctx.Stats.Int; st != nil && st.Count > 0 {
		numCount += st.Count
		lo = math.Min(lo, float64(st.Min))
		hi = math.Max(hi, float64(st.Max))
	}
	if st := ctx.Stats.Float; st != nil && st.Count > 0 {
		numCount += st.Count
		lo = math.Min(lo, st.Min)
		hi = math.Max(hi, st.Max)
	}
	typeSel := float64(numCount) / ctx.docCount()
	hist := ctx.Stats.NumHist
	for try := 0; try < 8; try++ {
		frac := pickTargetFraction(ctx, typeSel)
		op := cmpOps[ctx.Rng.Intn(len(cmpOps))]
		var v float64
		switch {
		case hi <= lo:
			// Degenerate range: the constant is the single value and
			// only inclusive operators select anything.
			v = lo
			op = []query.CmpOp{query.Le, query.Ge}[ctx.Rng.Intn(2)]
			frac = 1
		case hist != nil && hist.Total > 0:
			// Histogram-guided constant (the paper's future-work
			// extension): place the threshold at the quantile that
			// yields the target fraction even under skew.
			switch op {
			case query.Ge, query.Gt:
				v = hist.Quantile(1 - frac)
				frac = 1 - hist.FractionLE(v)
			default:
				v = hist.Quantile(frac)
				frac = hist.FractionLE(v)
			}
		default:
			// Uniform assumption over [lo, hi].
			switch op {
			case query.Ge, query.Gt:
				v = hi - frac*(hi-lo)
			default:
				v = lo + frac*(hi-lo)
			}
		}
		p := query.FloatCmp{Path: ctx.Path, Op: op, Value: v}
		if !ctx.excluded(p) {
			return p, typeSel * frac, true
		}
	}
	return nil, 0, false
}

// strEqFactory builds <ptr> == <string> predicates from the analyzer's
// bounded sample of exact values.
type strEqFactory struct{}

func (strEqFactory) Name() string { return "str-eq" }

func (strEqFactory) CanGenerate(_ jsonval.Path, ps *jsonstats.PathStats, _ *jsonstats.Dataset) bool {
	return ps.Str != nil && ps.Str.Values.Len() > 0
}

func (strEqFactory) Generate(ctx *FactoryContext) (query.Predicate, float64, bool) {
	for try := 0; try < 8; try++ {
		v, est, ok := chooseCounted(ctx, ctx.Stats.Str.Values)
		if !ok {
			return nil, 0, false
		}
		p := query.StrEq{Path: ctx.Path, Value: v}
		if !ctx.excluded(p) {
			return p, est, true
		}
	}
	return nil, 0, false
}

// hasPrefixFactory builds HASPREFIX(<ptr>, <string>) predicates from the
// analyzer's counted prefixes.
type hasPrefixFactory struct{}

func (hasPrefixFactory) Name() string { return "hasprefix" }

func (hasPrefixFactory) CanGenerate(_ jsonval.Path, ps *jsonstats.PathStats, _ *jsonstats.Dataset) bool {
	return ps.Str != nil && ps.Str.Prefixes.Len() > 0
}

func (hasPrefixFactory) Generate(ctx *FactoryContext) (query.Predicate, float64, bool) {
	for try := 0; try < 8; try++ {
		pre, est, ok := chooseCounted(ctx, ctx.Stats.Str.Prefixes)
		if !ok {
			return nil, 0, false
		}
		p := query.HasPrefix{Path: ctx.Path, Prefix: pre}
		if !ctx.excluded(p) {
			return p, est, true
		}
	}
	return nil, 0, false
}

// boolEqFactory builds <ptr> == <bool> predicates, preferring the constant
// whose selectivity falls into the target range. Missing true/false counts
// would default to a uniform split per §IV-D; the analyzer always provides
// them.
type boolEqFactory struct{}

func (boolEqFactory) Name() string { return "bool-eq" }

func (boolEqFactory) CanGenerate(_ jsonval.Path, ps *jsonstats.PathStats, _ *jsonstats.Dataset) bool {
	return ps.Bool != nil && ps.Bool.Count > 0
}

func (boolEqFactory) Generate(ctx *FactoryContext) (query.Predicate, float64, bool) {
	st := ctx.Stats.Bool
	doc := ctx.docCount()
	selTrue := float64(st.TrueCount) / doc
	selFalse := float64(st.Count-st.TrueCount) / doc
	candidates := []struct {
		value bool
		est   float64
	}{{true, selTrue}, {false, selFalse}}
	// Prefer an in-range constant; otherwise order randomly.
	if (candidates[0].est >= ctx.TargetMin && candidates[0].est <= ctx.TargetMax) ==
		(candidates[1].est >= ctx.TargetMin && candidates[1].est <= ctx.TargetMax) {
		if ctx.Rng.Intn(2) == 0 {
			candidates[0], candidates[1] = candidates[1], candidates[0]
		}
	} else if candidates[1].est >= ctx.TargetMin && candidates[1].est <= ctx.TargetMax {
		candidates[0], candidates[1] = candidates[1], candidates[0]
	}
	for _, c := range candidates {
		p := query.BoolEq{Path: ctx.Path, Value: c.value}
		if !ctx.excluded(p) {
			return p, c.est, true
		}
	}
	return nil, 0, false
}

// arrSizeFactory builds ARRSIZE(<ptr>) <comparison> <int> predicates under a
// uniform size assumption.
type arrSizeFactory struct{}

func (arrSizeFactory) Name() string { return "arrsize" }

func (arrSizeFactory) CanGenerate(_ jsonval.Path, ps *jsonstats.PathStats, _ *jsonstats.Dataset) bool {
	return ps.Arr != nil && ps.Arr.Count > 0
}

func (arrSizeFactory) Generate(ctx *FactoryContext) (query.Predicate, float64, bool) {
	st := ctx.Stats.Arr
	typeSel := float64(st.Count) / ctx.docCount()
	p, est, ok := sizePredicate(ctx, typeSel, st.MinSize, st.MaxSize, func(op query.CmpOp, v int) query.Predicate {
		return query.ArrSize{Path: ctx.Path, Op: op, Value: v}
	})
	if !ok {
		return nil, 0, false
	}
	return p, est, true
}

// objSizeFactory builds OBJSIZE(<ptr>) <comparison> <int> predicates under a
// uniform child-count assumption.
type objSizeFactory struct{}

func (objSizeFactory) Name() string { return "objsize" }

func (objSizeFactory) CanGenerate(_ jsonval.Path, ps *jsonstats.PathStats, _ *jsonstats.Dataset) bool {
	return ps.Obj != nil && ps.Obj.Count > 0
}

func (objSizeFactory) Generate(ctx *FactoryContext) (query.Predicate, float64, bool) {
	st := ctx.Stats.Obj
	typeSel := float64(st.Count) / ctx.docCount()
	p, est, ok := sizePredicate(ctx, typeSel, st.MinChildren, st.MaxChildren, func(op query.CmpOp, v int) query.Predicate {
		return query.ObjSize{Path: ctx.Path, Op: op, Value: v}
	})
	if !ok {
		return nil, 0, false
	}
	return p, est, true
}

// sizePredicate instantiates an integer size comparison over [lo, hi] with
// the usual uniform assumption, shared by ARRSIZE and OBJSIZE.
func sizePredicate(ctx *FactoryContext, typeSel float64, lo, hi int, build func(query.CmpOp, int) query.Predicate) (query.Predicate, float64, bool) {
	for try := 0; try < 8; try++ {
		if hi <= lo {
			// All sizes equal: equality selects everything of the type.
			p := build(query.Eq, lo)
			if ctx.excluded(p) {
				return nil, 0, false
			}
			return p, typeSel, true
		}
		frac := pickTargetFraction(ctx, typeSel)
		op := cmpOps[ctx.Rng.Intn(len(cmpOps))]
		span := float64(hi - lo)
		var v int
		switch op {
		case query.Ge, query.Gt:
			v = hi - int(math.Round(frac*span))
		default:
			v = lo + int(math.Round(frac*span))
		}
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		p := build(op, v)
		if !ctx.excluded(p) {
			return p, typeSel * frac, true
		}
	}
	return nil, 0, false
}
