package core

import (
	"fmt"

	"github.com/joda-explore/betze/internal/jsonstats"
	"github.com/joda-explore/betze/internal/jsonval"
	"github.com/joda-explore/betze/internal/query"
)

// generateTransform builds a small transformation stage over the dataset's
// current attribute namespace: renames, removals and constant additions,
// the operations the paper's future-work section proposes. idx keeps the
// generated names unique within the session.
func (g *generator) generateTransform(stats *jsonstats.Dataset, idx int) *query.Transform {
	t := &query.Transform{}
	ops := 1 + g.rng.Intn(2)
	for i := 0; i < ops; i++ {
		switch g.rng.Intn(3) {
		case 0: // rename
			path, _, ok := g.pickPath(stats)
			if !ok {
				continue
			}
			t.Ops = append(t.Ops, query.TransformOp{
				Kind:    query.TransformRename,
				Path:    path,
				NewName: fmt.Sprintf("%s_r%d", path.Leaf(), idx),
			})
		case 1: // remove
			path, _, ok := g.pickPath(stats)
			if !ok {
				continue
			}
			t.Ops = append(t.Ops, query.TransformOp{Kind: query.TransformRemove, Path: path})
		default: // add a constant attribute at the root
			var v jsonval.Value
			if g.rng.Intn(2) == 0 {
				v = jsonval.StringValue(fmt.Sprintf("betze_%d", g.rng.Intn(1000)))
			} else {
				v = jsonval.IntValue(int64(g.rng.Intn(1000)))
			}
			t.Ops = append(t.Ops, query.TransformOp{
				Kind:  query.TransformAdd,
				Path:  jsonval.RootPath.Child(fmt.Sprintf("betze_tag_%d_%d", idx, i)),
				Value: v,
			})
		}
	}
	if len(t.Ops) == 0 {
		return nil
	}
	return t
}

// applyTransformToStats derives the statistics of a transformed dataset:
// renamed subtrees move, removed subtrees disappear, added constants appear
// in every document. Parent object child-count ranges become approximate,
// which is acceptable for the size/selectivity estimation they feed.
func applyTransformToStats(stats *jsonstats.Dataset, t *query.Transform) *jsonstats.Dataset {
	out := stats.Materialize() // a view has no Paths map to edit
	for _, op := range t.Ops {
		switch op.Kind {
		case query.TransformRename:
			target := op.Path.Parent().Child(op.NewName)
			moveSubtree(out, op.Path, target)
		case query.TransformRemove:
			removeSubtree(out, op.Path)
		case query.TransformAdd:
			addConstant(out, op.Path, op.Value)
		}
	}
	return out
}

func moveSubtree(d *jsonstats.Dataset, from, to jsonval.Path) {
	moved := make(map[jsonval.Path]*jsonstats.PathStats)
	for p, ps := range d.Paths {
		if p == from || from.IsAncestorOf(p) {
			np := to + p[len(from):]
			moved[np] = ps
			delete(d.Paths, p)
		}
	}
	for p, ps := range moved {
		d.Paths[p] = ps
	}
}

func removeSubtree(d *jsonstats.Dataset, path jsonval.Path) {
	for p := range d.Paths {
		if p == path || path.IsAncestorOf(p) {
			delete(d.Paths, p)
		}
	}
}

func addConstant(d *jsonstats.Dataset, path jsonval.Path, v jsonval.Value) {
	ps := &jsonstats.PathStats{Count: d.DocCount}
	switch v.Kind() {
	case jsonval.Null:
		ps.NullCount = d.DocCount
	case jsonval.Bool:
		ps.Bool = &jsonstats.BoolStats{Count: d.DocCount}
		if v.Bool() {
			ps.Bool.TrueCount = d.DocCount
		}
	case jsonval.Int:
		ps.Int = &jsonstats.IntStats{Count: d.DocCount, Min: v.Int(), Max: v.Int()}
	case jsonval.Float:
		ps.Float = &jsonstats.FloatStats{Count: d.DocCount, Min: v.Float(), Max: v.Float()}
	case jsonval.String:
		s := v.Str()
		pre := s
		if len(pre) > jsonstats.DefaultPrefixLen {
			pre = pre[:jsonstats.DefaultPrefixLen]
		}
		ps.Str = &jsonstats.StringStats{
			Count:    d.DocCount,
			Prefixes: jsonstats.CountedOf(map[string]int64{pre: d.DocCount}),
			Values:   jsonstats.CountedOf(map[string]int64{s: d.DocCount}),
			MinLen:   len(s),
			MaxLen:   len(s),
		}
	case jsonval.Object:
		ps.Obj = &jsonstats.ObjectStats{Count: d.DocCount, MinChildren: v.Len(), MaxChildren: v.Len()}
	case jsonval.Array:
		ps.Arr = &jsonstats.ArrayStats{Count: d.DocCount, MinSize: v.Len(), MaxSize: v.Len()}
	}
	d.Paths[path] = ps
}
