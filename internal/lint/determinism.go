package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismScope are the import-path segments of the packages whose
// output must be byte-deterministic from a seed: the generator core, the
// query model, the dataset analyzer, the language translators, the
// synthetic dataset sources, the fault injector, the shared scan kernel,
// and the columnar shard store (zone maps feed pruning decisions, which
// feed scan counters in benchmark output). The harness and the engines
// legitimately read wall clocks (they measure); these packages must not.
// The jobqueue and the web service are in scope too: both inject clocks
// (Options.Now, Server latencies) and every residual wall-clock read must
// carry an explained //lint:ignore, so new ones can't creep in silently.
var DeterminismScope = []string{
	"internal/core",
	"internal/query",
	"internal/analyze",
	"internal/langs",
	"internal/datasets",
	"internal/faultsim",
	"internal/engine/scan",
	"internal/shard",
	"internal/jobqueue",
	"cmd/betze-web",
}

// globalRandFuncs are the package-level math/rand functions backed by the
// process-global, time-seeded source. rand.New and rand.NewSource are the
// sanctioned alternative and are absent deliberately.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
}

// determinism flags wall-clock and ambient-randomness escapes in the
// packages every byte of benchmark output must be reproducible from:
// time.Now, the global math/rand functions, and map iterations whose order
// can leak into output (a range over a map with no subsequent sort in the
// same function).
type determinism struct {
	scope []string
}

// NewDeterminism returns the determinism analyzer restricted to packages
// whose import path contains one of the scope segments; an empty scope
// checks every package (used by fixture tests).
func NewDeterminism(scope ...string) Analyzer { return &determinism{scope: scope} }

func (d *determinism) Name() string { return "determinism" }
func (d *determinism) Doc() string {
	return "seeded packages must not read wall clocks, global randomness, or map order"
}

func (d *determinism) Run(pass *Pass) {
	if len(d.scope) > 0 && !pathHasAny(pass.Pkg.Path, d.scope) {
		return
	}
	for _, f := range pass.Pkg.Files {
		aliases := importAliases(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				path, name, ok := pkgFuncCall(aliases, v)
				if !ok {
					return true
				}
				if path == "time" && name == "Now" {
					pass.Report(v, "time.Now() in a deterministic path; inject a clock or derive timestamps from the seed")
				}
				if path == "math/rand" && globalRandFuncs[name] {
					pass.Report(v, "global math/rand.%s uses the ambient source; use rand.New(rand.NewSource(seed))", name)
				}
			case *ast.FuncDecl:
				if v.Body != nil {
					d.checkMapRanges(pass, v.Body)
				}
				// FuncLits are visited through the enclosing declaration's
				// body; don't descend twice.
			}
			return true
		})
	}
}

// orderSinkCalls are selector names through which an iteration's order can
// reach benchmark output: writer methods, printers, and the obs trace
// recorder.
var orderSinkCalls = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Record": true,
}

// checkMapRanges flags range statements over map-typed expressions whose
// body feeds an order-sensitive sink — appends to a slice, writes to a
// writer or builder, records a trace event, sends on a channel — unless the
// function later sorts (any sort.* or slices.* call after the loop counts:
// the collect-keys-then-sort idiom). Map-to-map transforms iterate in
// arbitrary order harmlessly and are not flagged. Expressions whose type
// the lenient checker could not resolve are skipped: no type, no finding.
func (d *determinism) checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	var ranges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			ranges = append(ranges, r)
		}
		return true
	})
	if len(ranges) == 0 {
		return
	}
	var sortCalls []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "sort" || id.Name == "slices") {
				sortCalls = append(sortCalls, call)
			}
		}
		return true
	})
	for _, r := range ranges {
		tv, ok := info.Types[r.X]
		if !ok || tv.Type == nil {
			continue
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			continue
		}
		if !orderSensitive(r.Body) {
			continue
		}
		sorted := false
		for _, c := range sortCalls {
			if c.Pos() > r.End() {
				sorted = true
				break
			}
		}
		if !sorted {
			pass.Report(r, "map iteration order can leak into deterministic output; collect keys and sort, or //lint:ignore with a reason")
		}
	}
}

// orderSensitive reports whether the loop body contains a sink whose result
// depends on iteration order.
func orderSensitive(body *ast.BlockStmt) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SendStmt:
			found = true
		case *ast.CallExpr:
			switch fun := v.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" {
					found = true
				}
			case *ast.SelectorExpr:
				if orderSinkCalls[fun.Sel.Name] || strings.HasPrefix(fun.Sel.Name, "Write") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
