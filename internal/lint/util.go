package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// importAliases maps the names by which a file refers to its imports to the
// imported paths ("rand" -> "math/rand"). Dot and blank imports are
// skipped; named imports use the given name, default imports the last path
// segment. Shadowing of an import alias by a local variable is rare enough
// in practice that the analyzers accept it as a known approximation.
func importAliases(f *ast.File) map[string]string {
	aliases := make(map[string]string, len(f.Imports))
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "." || name == "_" {
			continue
		}
		aliases[name] = path
	}
	return aliases
}

// pkgFuncCall reports whether call is a selector call X.Sel(...) where X is
// an import alias, returning the imported path and the selected name.
func pkgFuncCall(aliases map[string]string, call *ast.CallExpr) (path, name string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	ident, okIdent := sel.X.(*ast.Ident)
	if !okIdent {
		return "", "", false
	}
	path, okPath := aliases[ident.Name]
	if !okPath {
		return "", "", false
	}
	return path, sel.Sel.Name, true
}

// containsStringLit reports whether the expression contains a string
// literal anywhere (a bare literal, a concatenation with one, a conversion
// of one, ...).
func containsStringLit(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind.String() == "STRING" {
			found = true
		}
		return !found
	})
	return found
}

// pathHasAny reports whether the import path contains one of the given
// slash-delimited segments sequences (e.g. "internal/query").
func pathHasAny(path string, segments []string) bool {
	for _, seg := range segments {
		if strings.Contains(path, seg) {
			return true
		}
	}
	return false
}
