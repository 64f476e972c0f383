package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// journalorder enforces the write-ahead discipline that makes the jobqueue
// crash-recoverable: inside a method of a journaled type (a struct holding
// a *runlog.Writer), every mutation of durable in-memory state must be
// dominated by a journal append in the same function. Mutate-then-append
// is the crash window — if the process dies between the two, memory and
// journal disagree and recovery resurrects or loses a job.
//
// Journal points are AppendSync calls, directly or through a same-package
// helper method whose body appends (q.append). Mutations are assignments,
// IncDec and map deletes rooted at the receiver or at receiver-tainted
// locals (j := q.jobs[id]; j.state = ...). Two escape hatches keep the
// analyzer honest about state that is legitimately not write-ahead:
//
//   - a struct field whose doc or line comment contains "volatile:" is
//     scheduling/notification state, rebuilt on restart, never journaled;
//   - a function whose doc comment contains a //lint:ignore journalorder
//     line is exempt wholesale — recovery replay is the canonical case,
//     since replay folds the journal INTO memory and cannot append first.
//
// The analysis is a must-reach forward dataflow over the method's CFG:
// the fact "a journal append definitely executed" must hold at every
// mutation site on every path.
type journalorder struct {
	scope []string
}

// NewJournalorder returns the journalorder analyzer restricted to packages
// whose import path contains one of the scope segments; an empty scope
// checks every package (fixtures).
func NewJournalorder(scope ...string) Analyzer { return &journalorder{scope: scope} }

func (j *journalorder) Name() string { return "journalorder" }
func (j *journalorder) Doc() string {
	return "in journaled types, AppendSync must dominate every in-memory state mutation"
}

// volatileMarker in a field comment exempts the field from the discipline.
const volatileMarker = "volatile:"

func (j *journalorder) Run(pass *Pass) {
	if len(j.scope) > 0 && !pathHasAny(pass.Pkg.Path, j.scope) {
		return
	}

	// Package-wide survey: journaled type names, volatile field names, and
	// helper methods whose bodies append (depth-1 resolution for q.append).
	journaled := map[string]bool{}   // type name -> has *runlog.Writer field
	writerField := map[string]bool{} // field names holding the writer itself
	volatile := map[string]bool{}    // field names marked "volatile:"
	appender := map[string]bool{}    // method names whose body calls AppendSync
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			switch v := d.(type) {
			case *ast.GenDecl:
				for _, spec := range v.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					surveyStruct(ts.Name.Name, st, journaled, writerField, volatile)
				}
			case *ast.FuncDecl:
				if v.Body != nil && v.Recv != nil && bodyCallsAppendSync(v.Body) {
					appender[v.Name.Name] = true
				}
			}
		}
	}
	if len(journaled) == 0 {
		return
	}

	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			recvName, recvType := recvInfo(fd)
			if recvName == "" || !journaled[recvType] {
				continue
			}
			if docIgnoresJournalorder(fd.Doc) {
				continue
			}
			j.checkMethod(pass, fd, recvName, writerField, volatile, appender)
		}
	}
}

// surveyStruct records whether the struct is journaled and which of its
// fields are the writer or marked volatile. Field names are collected
// package-wide: the job struct has no writer of its own, but its volatile
// fields are still exempt when reached through q.jobs[id].
func surveyStruct(name string, st *ast.StructType, journaled, writerField, volatile map[string]bool) {
	for _, field := range st.Fields.List {
		isWriter := false
		if star, ok := field.Type.(*ast.StarExpr); ok {
			if sel, ok := star.X.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "runlog" && sel.Sel.Name == "Writer" {
					isWriter = true
					journaled[name] = true
				}
			}
		}
		isVolatile := fieldCommentContains(field, volatileMarker)
		for _, id := range field.Names {
			if isWriter {
				writerField[id.Name] = true
			}
			if isVolatile {
				volatile[id.Name] = true
			}
		}
	}
}

// fieldCommentContains checks the field's doc and trailing line comment.
func fieldCommentContains(field *ast.Field, marker string) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg != nil && strings.Contains(cg.Text(), marker) {
			return true
		}
	}
	return false
}

// bodyCallsAppendSync reports whether the body contains an X.AppendSync(...)
// call outside nested literals.
func bodyCallsAppendSync(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if _, name, ok := selCall(n); ok && name == "AppendSync" {
			found = true
		}
		return !found
	})
	return found
}

// recvInfo extracts the receiver name and bare type name of a method.
func recvInfo(fd *ast.FuncDecl) (name, typ string) {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return "", ""
	}
	name = fd.Recv.List[0].Names[0].Name
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		typ = id.Name
	}
	return name, typ
}

// docIgnoresJournalorder reports whether the function's doc comment carries
// a //lint:ignore journalorder line. Function-level suppression exists
// because the finding positions are scattered mutation sites — recovery
// replay would need a dozen line-level ignores for one design decision.
func docIgnoresJournalorder(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, IgnorePrefix)
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) >= 2 && fields[0] == "journalorder" {
			return true
		}
	}
	return false
}

// checkMethod runs the must-reach analysis over one method body.
func (j *journalorder) checkMethod(pass *Pass, fd *ast.FuncDecl, recv string, writerField, volatile, appender map[string]bool) {
	g := BuildCFG(fd.Body)

	// Receiver-tainted locals: j := q.jobs[id] makes j an alias into
	// durable state. Collected in one flow-insensitive pre-pass — lint-level
	// precision, not alias analysis.
	tainted := map[string]bool{recv: true}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE {
				return true
			}
			rootsTainted := false
			for _, rhs := range as.Rhs {
				if key := exprKey(rhs); key != "" && tainted[baseIdent(key)] {
					rootsTainted = true
				}
			}
			if !rootsTainted {
				return true
			}
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" && !tainted[id.Name] {
					tainted[id.Name] = true
					changed = true
				}
			}
			return true
		})
	}

	isJournalPoint := func(s ast.Stmt) bool {
		found := false
		inspectOwned(s, func(n ast.Node) bool {
			recvExpr, name, ok := selCall(n)
			if !ok {
				return true
			}
			if name == "AppendSync" {
				found = true
				return false
			}
			// q.append(...): a same-package helper that appends.
			if key := exprKey(recvExpr); key == recv && appender[name] {
				found = true
				return false
			}
			return true
		})
		return found
	}

	// mutationKeys returns the durable-state keys the statement writes.
	mutationKeys := func(s ast.Stmt) []string {
		var keys []string
		// allowBare: a bare-ident target normally means rebinding a local
		// (j = other) or incrementing a value copy — not queue state. A
		// delete() through a map alias is the exception: maps are references,
		// so delete(jobs, id) mutates the shared state the alias points at.
		add := func(e ast.Expr, allowBare bool) {
			if _, bare := e.(*ast.Ident); bare && !allowBare {
				return
			}
			key := exprKey(e)
			if key == "" || !tainted[baseIdent(key)] {
				return
			}
			// Field-level exemptions: the writer itself, volatile fields.
			for _, p := range strings.Split(key, ".")[1:] {
				if writerField[p] || volatile[p] {
					return
				}
			}
			keys = append(keys, key)
		}
		inspectOwned(s, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				if v.Tok == token.DEFINE {
					return true
				}
				for _, lhs := range v.Lhs {
					add(lhs, false)
				}
			case *ast.IncDecStmt:
				add(v.X, false)
			case *ast.CallExpr:
				if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "delete" && len(v.Args) > 0 {
					add(v.Args[0], true)
				}
			}
			return true
		})
		return keys
	}

	// Replay each block from its entry fact; once a journal point has
	// executed, the rest of the block is covered.
	journaled := mustReach(g, isJournalPoint)
	for _, b := range g.Blocks {
		done := journaled[b.Index]
		for _, s := range b.Stmts {
			if done = done || isJournalPoint(s); done {
				break
			}
			for _, key := range mutationKeys(s) {
				pass.Report(s, "mutation of %q before journal append: AppendSync must dominate in-memory mutation (crash here loses the update); append first, mark the field volatile, or //lint:ignore journalorder", key)
			}
		}
	}
}

// mustReach computes, per block index, whether a journal point definitely
// executed on every path from the entry to the block's first statement.
// Facts start optimistic (true) everywhere but the entry — so loop
// back-edges not yet visited and unreachable code do not weaken a join — and
// only ever fall, so the round-robin sweep reaches its fixpoint.
func mustReach(g *CFG, point func(ast.Stmt) bool) []bool {
	in := make([]bool, len(g.Blocks))
	out := make([]bool, len(g.Blocks))
	for i := range in {
		in[i], out[i] = true, true
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.Blocks {
			f := b != g.Entry
			for _, p := range b.Preds {
				f = f && out[p.Index]
			}
			o := f
			for _, s := range b.Stmts {
				o = o || point(s)
			}
			if f != in[b.Index] || o != out[b.Index] {
				in[b.Index], out[b.Index] = f, o
				changed = true
			}
		}
	}
	return in
}

// baseIdent returns the leading identifier of a dotted key ("q.jobs" -> "q").
func baseIdent(key string) string {
	base, _, _ := strings.Cut(key, ".")
	return base
}
