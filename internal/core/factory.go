package core

import (
	"math/rand"

	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// FactoryContext carries everything a predicate factory may consult when
// instantiating a predicate (§IV-D: "Given a dataset path with statistics, a
// random generator, and an exclusion list of already generated predicates").
type FactoryContext struct {
	// Path is the attribute the predicate is generated for.
	Path jsonval.Path
	// Stats are the statistics of Path within Dataset.
	Stats *jsonstats.PathStats
	// Dataset is the summary of the dataset the query runs on.
	Dataset *jsonstats.Dataset
	// Rng is the session's seeded random generator.
	Rng *rand.Rand
	// TargetMin and TargetMax bound the desired selectivity of the
	// generated predicate relative to Dataset. Callers scale them when a
	// predicate is generated as an AND/OR augmentation.
	TargetMin, TargetMax float64
	// Exclude holds the canonical forms of already generated predicates;
	// factories must not return a predicate whose String() is present.
	Exclude map[string]bool
}

// docCount returns the dataset size, guarded against zero.
func (ctx *FactoryContext) docCount() float64 {
	if ctx.Dataset.DocCount <= 0 {
		return 1
	}
	return float64(ctx.Dataset.DocCount)
}

// excluded reports whether the predicate was generated before.
func (ctx *FactoryContext) excluded(p query.Predicate) bool {
	return ctx.Exclude[p.String()]
}

// Factory generates one kind of filter predicate. Implementations follow
// the paper's two-step protocol: CanGenerate decides from the statistics
// whether the predicate type applies to a path at all, Generate instantiates
// it aiming at the target selectivity.
type Factory interface {
	// Name is the stable identifier used in include/exclude lists and in
	// the Fig. 8 predicate-distribution reports.
	Name() string
	// CanGenerate reports whether the factory can build a predicate for
	// the path described by ps.
	CanGenerate(path jsonval.Path, ps *jsonstats.PathStats, ds *jsonstats.Dataset) bool
	// Generate builds a predicate and returns its estimated selectivity.
	// ok is false when the factory cannot produce a non-excluded
	// predicate for the path.
	Generate(ctx *FactoryContext) (p query.Predicate, estimate float64, ok bool)
}

// DefaultFactories returns the nine built-in predicate factories of §III-A
// in a deterministic order.
func DefaultFactories() []Factory {
	return []Factory{
		existsFactory{},
		isStringFactory{},
		intEqFactory{},
		floatCmpFactory{},
		strEqFactory{},
		hasPrefixFactory{},
		boolEqFactory{},
		arrSizeFactory{},
		objSizeFactory{},
	}
}

// FactoryNames lists the built-in factory names.
func FactoryNames() []string {
	fs := DefaultFactories()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name()
	}
	return names
}

func knownFactory(name string) bool {
	for _, n := range FactoryNames() {
		if n == name {
			return true
		}
	}
	return false
}

// filterFactories applies the include/exclude lists of §IV-C.
func filterFactories(include, exclude []string) []Factory {
	all := DefaultFactories()
	if len(include) > 0 {
		keep := make(map[string]bool, len(include))
		for _, n := range include {
			keep[n] = true
		}
		var out []Factory
		for _, f := range all {
			if keep[f.Name()] {
				out = append(out, f)
			}
		}
		return out
	}
	if len(exclude) > 0 {
		drop := make(map[string]bool, len(exclude))
		for _, n := range exclude {
			drop[n] = true
		}
		var out []Factory
		for _, f := range all {
			if !drop[f.Name()] {
				out = append(out, f)
			}
		}
		return out
	}
	return all
}

// clamp01 clamps s into [0, 1].
func clamp01(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// pickTargetFraction picks a uniform random value in the target range scaled
// into the available [0, typeSel] budget: a predicate on a type covering
// typeSel of the documents can reach at most typeSel overall selectivity, so
// the in-type fraction must aim at target/typeSel (the paper's worked
// example in §IV-B).
func pickTargetFraction(ctx *FactoryContext, typeSel float64) float64 {
	if typeSel <= 0 {
		return 0
	}
	lo := clamp01(ctx.TargetMin / typeSel)
	hi := clamp01(ctx.TargetMax / typeSel)
	if lo > hi {
		lo = hi
	}
	return lo + ctx.Rng.Float64()*(hi-lo)
}

// chooseCounted picks from a string table, preferring entries whose
// selectivity lands in the target range and falling back to a random entry.
// It walks the table in key order, so a seeded run draws reproducibly.
func chooseCounted(ctx *FactoryContext, t jsonstats.Counted) (string, float64, bool) {
	if t.Len() == 0 {
		return "", 0, false
	}
	doc := ctx.docCount()
	var buf [jsonstats.DefaultMaxPrefixes]int // the default tables fit on the stack
	inRange := buf[:0]
	for i := 0; i < t.Len(); i++ {
		_, c := t.At(i)
		if sel := float64(c) / doc; sel >= ctx.TargetMin && sel <= ctx.TargetMax {
			inRange = append(inRange, i)
		}
	}
	var i int
	if len(inRange) == 0 {
		i = ctx.Rng.Intn(t.Len())
	} else {
		i = inRange[ctx.Rng.Intn(len(inRange))]
	}
	k, c := t.At(i)
	return k, float64(c) / doc, true
}

var cmpOps = []query.CmpOp{query.Lt, query.Le, query.Gt, query.Ge}
