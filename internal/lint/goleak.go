package lint

import (
	"go/ast"
)

// goleak flags fire-and-forget goroutines: every `go` statement must be
// joinable or cancellable, or it outlives its spawner silently — an
// unjoined goroutine per session or campaign is an unbounded heap in a
// long-running server.
//
// A goroutine counts as joinable/cancellable when any of these hold:
//
//   - an argument (or captured use) is a context — cancellation reaches it;
//   - its body calls Done() on something (WaitGroup join) or is deferred to;
//   - its body sends on a channel or closes one — a completion signal the
//     spawner can receive;
//   - its body calls Wait() (it is itself a joiner).
//
// For `go f(...)` and `go r.m(...)` spawning a named same-package function,
// the callee's body is resolved and inspected by name — one level deep,
// which covers the worker-method idiom (go p.worker(ctx)). Goroutines that
// are intentionally process-lifetime (an HTTP accept loop) take a
// //lint:ignore goleak with the reason.
type goleak struct {
	scope []string
}

// NewGoleak returns the goleak analyzer restricted to packages whose import
// path contains one of the scope segments; an empty scope checks every
// package (fixtures).
func NewGoleak(scope ...string) Analyzer { return &goleak{scope: scope} }

func (g *goleak) Name() string { return "goleak" }
func (g *goleak) Doc() string {
	return "every go statement must be joinable (WaitGroup/channel) or ctx-cancellable"
}

func (g *goleak) Run(pass *Pass) {
	if len(g.scope) > 0 && !pathHasAny(pass.Pkg.Path, g.scope) {
		return
	}
	// Index the package's named function bodies for depth-1 resolution.
	bodies := map[string]*ast.FuncDecl{}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				bodies[fd.Name.Name] = fd
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if g.joinable(gs, bodies) {
				return true
			}
			pass.Report(gs, "fire-and-forget goroutine: not joinable (no WaitGroup Done, channel send or close) and not ctx-cancellable; join it, pass a ctx, or //lint:ignore goleak with a reason")
			return true
		})
	}
}

// joinable decides one go statement.
func (g *goleak) joinable(gs *ast.GoStmt, bodies map[string]*ast.FuncDecl) bool {
	// A context argument makes the goroutine cancellable.
	for _, arg := range gs.Call.Args {
		if isContextExpr(arg) {
			return true
		}
	}
	switch fun := gs.Call.Fun.(type) {
	case *ast.FuncLit:
		// Captured contexts count the same as passed ones.
		if fnBodySignalsJoin(fun.Body) || referencesContext(fun.Body) {
			return true
		}
		// A context parameter declared on the literal itself.
		if funcTypeHasContext(fun.Type) {
			return true
		}
		return false
	case *ast.Ident:
		if decl, ok := bodies[fun.Name]; ok {
			return funcTypeHasContext(decl.Type) || fnBodySignalsJoin(decl.Body)
		}
	case *ast.SelectorExpr:
		if decl, ok := bodies[fun.Sel.Name]; ok {
			return funcTypeHasContext(decl.Type) || fnBodySignalsJoin(decl.Body)
		}
	}
	// Unresolvable callee (another package, a stored func value): the
	// analysis cannot prove a leak, so it stays silent — missing
	// information is never a violation.
	return true
}

// fnBodySignalsJoin reports whether a goroutine body contains a join or
// completion signal: x.Done(), defer x.Done(), a channel send, close(ch),
// or x.Wait().
func fnBodySignalsJoin(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "close" {
				found = true
			}
			if _, name, _, ok := selCall(v); ok && (name == "Done" || name == "Wait") {
				found = true
			}
		}
		return !found
	})
	return found
}

// referencesContext reports whether the body uses a context: an ident named
// ctx, or a selector chain ending in a context-typed use (x.ctx).
func referencesContext(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (id.Name == "ctx" || id.Name == "Context") {
			found = true
		}
		return !found
	})
	return found
}

// isContextExpr matches arguments that carry a context by convention: the
// ident ctx, a selector ending in .ctx / .Context(), or a context.*
// constructor result.
func isContextExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name == "ctx"
	case *ast.SelectorExpr:
		return v.Sel.Name == "ctx"
	case *ast.CallExpr:
		if recv, name, _, ok := selCall(v); ok {
			if id, isID := recv.(*ast.Ident); isID && id.Name == "context" {
				return true
			}
			return name == "Context"
		}
	}
	return false
}

// funcTypeHasContext reports whether a function type declares a parameter
// written as <pkg>.Context.
func funcTypeHasContext(ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, p := range ft.Params.List {
		if sel, ok := p.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Context" {
			return true
		}
	}
	return false
}
