package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// errNoPredicate signals that no predicate can be generated on the current
// dataset; the explorer then random-jumps elsewhere (§IV-B: "If no paths
// remain, another dataset is chosen through a random jump").
var errNoPredicate = errors.New("core: no predicate can be generated on this dataset")

// Generate runs the random explorer once and returns the generated session.
// Each supplied dataset summary becomes an initial dataset of the graph.
func Generate(opts Options, datasets ...*jsonstats.Dataset) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(datasets) == 0 {
		return nil, errors.New("core: at least one analyzed dataset is required")
	}
	resolved := opts.withDefaults()
	g := &generator{
		opts:      resolved,
		rng:       rand.New(rand.NewSource(resolved.Seed)),
		factories: filterFactories(resolved.IncludePredicates, resolved.ExcludePredicates),
		exclude:   make(map[string]bool),
		session: &Session{
			Preset: resolved.Preset,
			Seed:   resolved.Seed,
		},
	}
	if len(g.factories) == 0 {
		return nil, errors.New("core: predicate include/exclude lists leave no factories")
	}
	for _, ds := range datasets {
		node := &Node{
			ID:    len(g.session.Nodes),
			Name:  ds.Name,
			Root:  ds.Name,
			Count: ds.DocCount,
			Stats: ds,
		}
		node.Verified = true // initial counts come from the analyzer
		g.session.Nodes = append(g.session.Nodes, node)
	}
	if err := g.run(); err != nil {
		return nil, err
	}
	return g.session, nil
}

type generator struct {
	opts      Options
	rng       *rand.Rand
	factories []Factory
	exclude   map[string]bool
	session   *Session
}

func (g *generator) run() error {
	current := g.session.Nodes[g.rng.Intn(len(g.session.Nodes))]
	for i := 1; i <= g.opts.Preset.Queries; i++ {
		node, err := g.generateStep(current, i)
		// Forced random jumps when the current dataset is exhausted or
		// empty; only when repeated jumps find no generatable dataset is
		// the session truly stuck.
		for tries := 0; errors.Is(err, errNoPredicate) && tries < 2*len(g.session.Nodes); tries++ {
			jumped, jerr := g.forcedJump(current)
			if jerr != nil {
				return fmt.Errorf("core: query %d: %w", i, jerr)
			}
			current = jumped
			node, err = g.generateStep(current, i)
		}
		if err != nil {
			return fmt.Errorf("core: query %d: %w", i, err)
		}
		g.session.Nodes = append(g.session.Nodes, node)
		g.session.Queries = append(g.session.Queries, node.Query)
		g.session.Steps = append(g.session.Steps, Step{Kind: StepExplore, From: current.ID, To: node.ID})

		// The explorer now stands on the new dataset and decides where to
		// continue (§III): back to the parent with probability alpha, a
		// random jump with probability beta, otherwise onwards.
		r := g.rng.Float64()
		switch {
		case r < g.opts.Preset.Alpha:
			parent := node.Parent
			if parent != nil {
				g.session.Steps = append(g.session.Steps, Step{Kind: StepBack, From: node.ID, To: parent.ID})
				current = parent
			} else {
				current = node
			}
		case r < g.opts.Preset.Alpha+g.opts.Preset.Beta:
			target := g.session.Nodes[g.rng.Intn(len(g.session.Nodes))]
			g.session.Steps = append(g.session.Steps, Step{Kind: StepJump, From: node.ID, To: target.ID})
			current = target
		default:
			current = node
		}
	}
	return nil
}

// forcedJump moves to a random other dataset after predicate generation
// failed on current.
func (g *generator) forcedJump(current *Node) (*Node, error) {
	candidates := make([]*Node, 0, len(g.session.Nodes))
	for _, n := range g.session.Nodes {
		if n != current {
			candidates = append(candidates, n)
		}
	}
	if len(candidates) == 0 {
		return nil, errNoPredicate
	}
	target := candidates[g.rng.Intn(len(candidates))]
	g.session.Steps = append(g.session.Steps, Step{Kind: StepJump, From: current.ID, To: target.ID})
	return target, nil
}

// generateStep builds the query deriving a new dataset from current.
func (g *generator) generateStep(current *Node, idx int) (*Node, error) {
	pred, sel, verified, err := g.generatePredicate(current)
	if err != nil {
		return nil, err
	}

	childName := fmt.Sprintf("%s_q%d", current.Root, idx)
	composed := pred
	if current.Pred != nil {
		composed = query.And{Left: current.Pred, Right: pred}
	}
	childCount := int64(math.Round(sel * float64(current.Count)))
	node := &Node{
		ID:       len(g.session.Nodes),
		Name:     childName,
		Root:     current.Root,
		Parent:   current,
		NewPred:  pred,
		Pred:     composed,
		Count:    childCount,
		Verified: verified && current.Verified,
		Stats:    current.Stats.Scale(childName, sel),
	}

	q := &query.Query{ID: fmt.Sprintf("q%d", idx)}
	if g.opts.Materialize {
		// Each query reads its parent's stored result and stores its own.
		q.Base = current.Name
		q.Filter = pred
		q.Store = childName
	} else {
		// Default: reference the base dataset and extend the predicate
		// (dataset B created by x, D by y => D's query is A with x AND y).
		q.Base = current.Root
		q.Filter = composed
	}
	if g.opts.Aggregate && g.rng.Float64() < g.opts.AggFraction {
		q.Agg = g.generateAggregation(node.Stats)
	}
	if g.opts.Transforms && g.rng.Float64() < g.opts.TransformFraction {
		if t := g.generateTransform(node.Stats, idx); t != nil {
			q.Transform = t
			node.Stats = applyTransformToStats(node.Stats, t)
		}
	}
	node.Query = q

	// Record the new leaves so later queries do not repeat them.
	for _, leaf := range query.Leaves(pred) {
		g.exclude[leaf.String()] = true
	}
	return node, nil
}

// generatePredicate searches for a predicate whose selectivity relative to
// current lands in the configured range, augmenting with AND/OR conditions
// and verifying against the backend when available. After MaxAttempts the
// closest candidate is accepted so the session always completes.
func (g *generator) generatePredicate(current *Node) (query.Predicate, float64, bool, error) {
	type candidate struct {
		pred     query.Predicate
		sel      float64
		verified bool
	}
	var best *candidate
	distance := func(sel float64) float64 {
		switch {
		case sel < g.opts.MinSelectivity:
			return g.opts.MinSelectivity - sel
		case sel > g.opts.MaxSelectivity:
			return sel - g.opts.MaxSelectivity
		default:
			return 0
		}
	}
	generated := false
	for attempt := 0; attempt < g.opts.MaxAttempts; attempt++ {
		pred, est, ok := g.buildPredicate(current)
		if !ok {
			continue
		}
		generated = true
		sel, verified, err := g.measure(current, pred, est)
		if err != nil {
			return nil, 0, false, err
		}
		cand := &candidate{pred: pred, sel: sel, verified: verified}
		if best == nil || distance(cand.sel) < distance(best.sel) {
			best = cand
		}
		if distance(cand.sel) == 0 {
			break
		}
		// Out-of-range verified candidates are discarded (§IV-B) and the
		// search continues.
	}
	if !generated || best == nil {
		return nil, 0, false, errNoPredicate
	}
	return best.pred, best.sel, best.verified, nil
}

// measure determines the predicate's actual selectivity on current via the
// backend, or falls back to the estimate.
func (g *generator) measure(current *Node, pred query.Predicate, est float64) (float64, bool, error) {
	if g.opts.Backend == nil || current.Count == 0 {
		return clamp01(est), false, nil
	}
	combined := pred
	if current.Pred != nil {
		combined = query.And{Left: current.Pred, Right: pred}
	}
	matched, err := g.opts.Backend.CountMatching(current.Root, combined)
	if err != nil {
		return 0, false, fmt.Errorf("verifying selectivity: %w", err)
	}
	return float64(matched) / float64(current.Count), true, nil
}

// buildPredicate generates one candidate predicate with AND/OR augmentation
// towards the target selectivity range (§IV-B).
func (g *generator) buildPredicate(current *Node) (query.Predicate, float64, bool) {
	pred, est, ok := g.leafPredicate(current, g.opts.MinSelectivity, g.opts.MaxSelectivity)
	if !ok {
		return nil, 0, false
	}
	for augment := 0; augment < g.opts.MaxAugment; augment++ {
		if est >= g.opts.MinSelectivity && est <= g.opts.MaxSelectivity {
			break
		}
		if est > g.opts.MaxSelectivity {
			// Too many documents pass: AND with a condition aimed at
			// target/est, so the product lands in range.
			lo := clamp01(g.opts.MinSelectivity / est)
			hi := clamp01(g.opts.MaxSelectivity / est)
			other, otherEst, ok := g.leafPredicate(current, lo, hi)
			if !ok {
				break
			}
			pred = query.And{Left: pred, Right: other}
			est *= otherEst
		} else {
			// Too few: OR with a condition aimed at the remaining gap
			// under an independence assumption.
			rem := 1 - est
			if rem <= 0 {
				break
			}
			lo := clamp01((g.opts.MinSelectivity - est) / rem)
			hi := clamp01((g.opts.MaxSelectivity - est) / rem)
			other, otherEst, ok := g.leafPredicate(current, lo, hi)
			if !ok {
				break
			}
			pred = query.Or{Left: pred, Right: other}
			est = est + otherEst*rem
		}
	}
	return pred, est, true
}

// leafPredicate picks a path and a suitable factory and generates one leaf
// predicate targeting [lo, hi].
func (g *generator) leafPredicate(current *Node, lo, hi float64) (query.Predicate, float64, bool) {
	const pathTries = 8
	for try := 0; try < pathTries; try++ {
		path, ps, ok := g.pickPath(current.Stats)
		if !ok {
			return nil, 0, false
		}
		var applicable []Factory
		for _, f := range g.factories {
			if f.CanGenerate(path, ps, current.Stats) {
				applicable = append(applicable, f)
			}
		}
		if len(applicable) == 0 {
			continue // try another path (§IV-B)
		}
		f := applicable[g.rng.Intn(len(applicable))]
		ctx := &FactoryContext{
			Path:      path,
			Stats:     ps,
			Dataset:   current.Stats,
			Rng:       g.rng,
			TargetMin: lo,
			TargetMax: hi,
			Exclude:   g.exclude,
		}
		if pred, est, ok := f.Generate(ctx); ok {
			return pred, clamp01(est), true
		}
	}
	return nil, 0, false
}

// pickPath selects the attribute to filter on: uniformly by default, or
// weighted inversely to path depth when WeightedPaths is set (§IV-C). Either
// way it is one draw against the summary's shared attribute index.
func (g *generator) pickPath(stats *jsonstats.Dataset) (jsonval.Path, *jsonstats.PathStats, bool) {
	paths, invDepthCum := stats.Attributes()
	if len(paths) == 0 {
		return jsonval.RootPath, nil, false
	}
	var i int
	if g.opts.WeightedPaths {
		r := g.rng.Float64() * invDepthCum[len(paths)-1]
		i = min(sort.SearchFloat64s(invDepthCum, r), len(paths)-1)
	} else {
		i = g.rng.Intn(len(paths))
	}
	return paths[i], stats.Lookup(paths[i]), true
}

// generateAggregation builds the optional aggregation stage: pick a path at
// random, keep the suitable functions, pick one, and optionally find a
// grouping attribute within a bounded number of tries (§IV-B).
func (g *generator) generateAggregation(stats *jsonstats.Dataset) *query.Aggregation {
	const pathTries = 6
	agg := &query.Aggregation{Func: query.Count, Path: jsonval.RootPath}
	for try := 0; try < pathTries; try++ {
		path, ps, ok := g.pickPath(stats)
		if !ok {
			break
		}
		var suitable []query.AggFunc
		for _, f := range g.opts.AggFuncs {
			switch f {
			case query.Count:
				suitable = append(suitable, f)
			case query.Sum:
				if (ps.Int != nil && ps.Int.Count > 0) || (ps.Float != nil && ps.Float.Count > 0) {
					suitable = append(suitable, f)
				}
			}
		}
		if len(suitable) == 0 {
			continue
		}
		agg.Func = suitable[g.rng.Intn(len(suitable))]
		agg.Path = path
		break
	}
	if g.opts.GroupBy {
		const groupTries = 5
		for try := 0; try < groupTries; try++ {
			path, ps, ok := g.pickPath(stats)
			if !ok {
				break
			}
			if path == agg.Path {
				continue
			}
			// Grouping needs a scalar-ish attribute: numerical, string
			// or boolean (§III-A).
			groupable := (ps.Str != nil && ps.Str.Count > 0) ||
				(ps.Bool != nil && ps.Bool.Count > 0) ||
				(ps.Int != nil && ps.Int.Count > 0) ||
				(ps.Float != nil && ps.Float.Count > 0)
			if !groupable {
				continue
			}
			agg.Grouped = true
			agg.GroupBy = path
			break
		}
	}
	return agg
}
