package query

import (
	"fmt"
	"strings"

	"github.com/joda-explore/betze/internal/jsonval"
)

// AggFunc enumerates the aggregation functions of §III-A.
type AggFunc uint8

// Supported aggregation functions.
const (
	// Count counts the documents that contain the aggregation path; with
	// the root path it counts all documents.
	Count AggFunc = iota
	// Sum sums the numeric attribute over the documents that have it.
	Sum
)

// String renders the function name in the internal syntax.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	default:
		return fmt.Sprintf("agg(%d)", uint8(f))
	}
}

// Aggregation describes an optional aggregation stage: one of the supported
// functions, optionally grouped by another attribute (<Agg> GROUP BY <ptr>).
type Aggregation struct {
	Func AggFunc
	// Path is the aggregated attribute; the root path makes Count count
	// every document.
	Path jsonval.Path
	// Grouped enables GROUP BY GroupBy.
	Grouped bool
	GroupBy jsonval.Path
}

// String renders the aggregation in the internal syntax.
func (a Aggregation) String() string {
	s := fmt.Sprintf("%s('%s')", a.Func, a.Path)
	if a.Grouped {
		s += fmt.Sprintf(" GROUP BY '%s'", a.GroupBy)
	}
	return s
}

// Query is the internal representation of one generated exploration step:
// a base dataset, an optional store target, an optional filter and an
// optional aggregation.
type Query struct {
	// ID identifies the query within its session (e.g. "q4").
	ID string
	// Base names the dataset the query reads.
	Base string
	// Store names the dataset the result is stored in; empty when the
	// result is not materialised.
	Store string
	// Filter is the predicate tree; nil selects every document.
	Filter Predicate
	// Transform optionally restructures every matching document before
	// aggregation/output (the paper's future-work extension).
	Transform *Transform
	// Agg is the optional aggregation stage; it sees transformed
	// documents when Transform is set.
	Agg *Aggregation
}

// Validate reports structural errors: a query needs a base dataset, and an
// aggregated result cannot be stored as a dataset (the paper: it "would
// only consist of one aggregated document, which can not be filtered
// further"). Engines reject invalid queries up front so they cannot diverge
// on undefined semantics.
func (q *Query) Validate() error {
	if q.Base == "" {
		return fmt.Errorf("query %s: no base dataset", q.ID)
	}
	if q.Store != "" && q.Agg != nil {
		return fmt.Errorf("query %s: an aggregated result cannot be stored as a dataset", q.ID)
	}
	return nil
}

// Matches reports whether doc passes the query's filter. A nil filter
// matches everything.
func (q *Query) Matches(doc jsonval.Value) bool {
	return q.Filter == nil || q.Filter.Eval(doc)
}

// ApplyTransform returns the document after the query's transform stage (a
// no-op without one).
func (q *Query) ApplyTransform(doc jsonval.Value) jsonval.Value {
	if q.Transform == nil {
		return doc
	}
	return q.Transform.Apply(doc)
}

// String renders the query in the internal syntax, which doubles as the
// JODA-independent display form in logs and the web UI.
func (q *Query) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "FROM %s", q.Base)
	if q.Filter != nil {
		fmt.Fprintf(&sb, " WHERE %s", q.Filter)
	}
	if q.Transform != nil {
		fmt.Fprintf(&sb, " %s", q.Transform)
	}
	if q.Agg != nil {
		fmt.Fprintf(&sb, " %s", q.Agg)
	}
	if q.Store != "" {
		fmt.Fprintf(&sb, " STORE %s", q.Store)
	}
	return sb.String()
}

// Paths returns every attribute path referenced by the query (filter leaves,
// aggregation path, group-by path), in first-reference order with duplicates
// preserved — Fig. 8 and Table IV of the paper count references, not
// distinct attributes.
func (q *Query) Paths() []jsonval.Path {
	var out []jsonval.Path
	for _, leaf := range Leaves(q.Filter) {
		if p, ok := LeafPath(leaf); ok {
			out = append(out, p)
		}
	}
	if q.Agg != nil {
		if q.Agg.Path != jsonval.RootPath {
			out = append(out, q.Agg.Path)
		}
		if q.Agg.Grouped {
			out = append(out, q.Agg.GroupBy)
		}
	}
	return out
}

// Aggregator incrementally computes a query's aggregation. Engines feed it
// the documents that pass the filter and call Result once.
type Aggregator struct {
	agg Aggregation
	// The pre-split aggregated and grouping paths, for AddLookup.
	steps, groupSteps []string

	// ungrouped state
	count    int64
	sumInt   int64
	sumFloat float64
	sawFloat bool
	sawAny   bool

	// grouped state
	groups map[string]*groupState
	order  []string // insertion order for deterministic-yet-natural output
}

type groupState struct {
	key      jsonval.Value
	count    int64
	sumInt   int64
	sumFloat float64
	sawFloat bool
	sawAny   bool
}

// NewAggregator returns an aggregator for agg.
func NewAggregator(agg Aggregation) *Aggregator {
	a := &Aggregator{agg: agg, steps: agg.Path.Steps(), groupSteps: agg.GroupBy.Steps()}
	if agg.Grouped {
		a.groups = make(map[string]*groupState)
	}
	return a
}

// Add folds one matching document into the aggregate.
func (a *Aggregator) Add(doc jsonval.Value) {
	v, vok := a.agg.Path.Lookup(doc)
	group, gok := jsonval.Value{}, false
	if a.agg.Grouped {
		group, gok = a.agg.GroupBy.Lookup(doc)
	}
	a.AddValues(v, vok, group, gok)
}

// AddLookup folds one matching binary document into the aggregate without
// materialising it: lookup resolves pre-split path steps in place (ok false
// when absent), and only the aggregated value — none for COUNT, which needs
// existence alone — and the group key are decoded.
func AddLookup[T any, V interface{ Value() (jsonval.Value, error) }](a *Aggregator, doc T, lookup func(T, []string) (V, bool, error)) error {
	var v, g jsonval.Value
	raw, vok, err := lookup(doc, a.steps)
	if err != nil {
		return err
	}
	if vok && a.agg.Func != Count {
		if v, err = raw.Value(); err != nil {
			return err
		}
	}
	gok := false
	if a.agg.Grouped {
		if raw, gok, err = lookup(doc, a.groupSteps); err != nil {
			return err
		}
		if gok {
			if g, err = raw.Value(); err != nil {
				return err
			}
		}
	}
	a.AddValues(v, vok, g, gok)
	return nil
}

// AddValues folds pre-extracted attribute values into the aggregate: v is
// the value at the aggregation path (vok false when absent) and group the
// value at the group-by path. Engines that navigate binary documents lazily
// use this entry point to avoid materialising whole documents.
func (a *Aggregator) AddValues(v jsonval.Value, vok bool, group jsonval.Value, gok bool) {
	if !a.agg.Grouped {
		a.fold(v, vok, nil)
		return
	}
	if !gok {
		// Documents without the grouping attribute fall into the null
		// group, matching MongoDB's $group behaviour.
		group = jsonval.NullValue()
	}
	gk := group.GroupKey()
	g := a.groups[gk]
	if g == nil {
		g = &groupState{key: group}
		a.groups[gk] = g
		a.order = append(a.order, gk)
	}
	a.fold(v, vok, g)
}

func (a *Aggregator) fold(v jsonval.Value, ok bool, g *groupState) {
	switch a.agg.Func {
	case Count:
		if !ok {
			return
		}
		if g != nil {
			g.count++
		} else {
			a.count++
		}
	case Sum:
		if !ok {
			return
		}
		switch v.Kind() {
		case jsonval.Int:
			if g != nil {
				g.sumInt += v.Int()
				g.sawAny = true
			} else {
				a.sumInt += v.Int()
				a.sawAny = true
			}
		case jsonval.Float:
			if g != nil {
				g.sumFloat += v.Float()
				g.sawFloat = true
				g.sawAny = true
			} else {
				a.sumFloat += v.Float()
				a.sawFloat = true
				a.sawAny = true
			}
		}
	}
}

func sumValue(sumInt int64, sumFloat float64, sawFloat, sawAny bool) jsonval.Value {
	if !sawAny {
		return jsonval.NullValue()
	}
	if sawFloat {
		return jsonval.FloatValue(sumFloat + float64(sumInt))
	}
	return jsonval.IntValue(sumInt)
}

// Result returns the aggregation output documents: one document for an
// ungrouped aggregation, one per group otherwise (insertion-ordered).
func (a *Aggregator) Result() []jsonval.Value {
	field := strings.ToLower(a.agg.Func.String())
	if !a.agg.Grouped {
		var v jsonval.Value
		switch a.agg.Func {
		case Count:
			v = jsonval.IntValue(a.count)
		case Sum:
			v = sumValue(a.sumInt, a.sumFloat, a.sawFloat, a.sawAny)
		}
		return []jsonval.Value{jsonval.ObjectValue(jsonval.Member{Key: field, Value: v})}
	}
	out := make([]jsonval.Value, 0, len(a.order))
	for _, gk := range a.order {
		g := a.groups[gk]
		var v jsonval.Value
		switch a.agg.Func {
		case Count:
			v = jsonval.IntValue(g.count)
		case Sum:
			v = sumValue(g.sumInt, g.sumFloat, g.sawFloat, g.sawAny)
		}
		out = append(out, jsonval.ObjectValue(
			jsonval.Member{Key: "group", Value: g.key},
			jsonval.Member{Key: field, Value: v},
		))
	}
	return out
}
