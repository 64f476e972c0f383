package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses a function body snippet for CFG construction.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// bodyStmts collects every statement the partition contract covers: all
// statements under the body except the body block itself, anything inside
// nested function literals, and the clause-container block of
// switch/type-switch/select (pure brace syntax, never placed).
func bodyStmts(body *ast.BlockStmt) []ast.Stmt {
	clauseContainers := map[ast.Stmt]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SwitchStmt:
			clauseContainers[v.Body] = true
		case *ast.TypeSwitchStmt:
			clauseContainers[v.Body] = true
		case *ast.SelectStmt:
			clauseContainers[v.Body] = true
		}
		return true
	})
	var out []ast.Stmt
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(c ast.Node) bool {
			if c == n {
				return true
			}
			if _, isLit := c.(*ast.FuncLit); isLit {
				return false
			}
			if s, isStmt := c.(ast.Stmt); isStmt && !clauseContainers[s] {
				out = append(out, s)
			}
			return true
		})
	}
	for _, s := range body.List {
		out = append(out, s)
		walk(s)
	}
	return out
}

// checkPartition asserts every statement lands in exactly one block.
func checkPartition(t *testing.T, g *CFG, body *ast.BlockStmt) {
	t.Helper()
	counts := map[ast.Stmt]int{}
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			counts[s]++
		}
	}
	for _, s := range bodyStmts(body) {
		switch counts[s] {
		case 1:
		case 0:
			t.Errorf("statement %T at %d not placed in any block", s, s.Pos())
		default:
			t.Errorf("statement %T at %d placed in %d blocks", s, s.Pos(), counts[s])
		}
	}
	if len(g.Exit.Stmts) != 0 {
		t.Errorf("exit block must stay synthetic, has %d statements", len(g.Exit.Stmts))
	}
}

func TestCFGShapes(t *testing.T) {
	cases := []struct {
		name string
		body string
		// minBlocks sanity-checks the construction fanned out at all.
		minBlocks int
	}{
		{"straightline", `x := 1; y := x; _ = y`, 2},
		{"if", `x := 1
if x > 0 {
	x = 2
}
_ = x`, 4},
		{"ifelse", `x := 1
if x > 0 {
	x = 2
} else {
	x = 3
}
_ = x`, 5},
		{"ifinit", `if x := 1; x > 0 {
	_ = x
}`, 4},
		{"for", `s := 0
for i := 0; i < 10; i++ {
	s += i
	if s > 5 {
		break
	}
	continue
}
_ = s`, 6},
		{"forever", `for {
	return
}`, 3},
		{"range", `s := 0
for i, v := range []int{1, 2} {
	s += i + v
}
_ = s`, 5},
		{"switch", `x := 1
switch x {
case 1:
	x = 2
	fallthrough
case 2:
	x = 3
default:
	x = 4
}
_ = x`, 6},
		{"typeswitch", `var v interface{} = 1
switch v.(type) {
case int:
	v = 2
}
_ = v`, 4},
		{"select", `ch := make(chan int)
select {
case v := <-ch:
	_ = v
default:
}`, 4},
		{"deferpanic", `defer println("done")
x := 1
if x > 0 {
	panic("boom")
}
_ = x`, 4},
		{"goto", `x := 0
loop:
	x++
	if x < 3 {
		goto loop
	}
_ = x`, 4},
		{"labeledbreak", `outer:
for i := 0; i < 3; i++ {
	for j := 0; j < 3; j++ {
		if i+j > 2 {
			break outer
		}
		continue outer
	}
}`, 8},
		{"funclit", `f := func() {
	return
}
f()`, 2},
		{"deadcode", `return
x := 1
_ = x`, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := parseBody(t, tc.body)
			g := BuildCFG(body)
			checkPartition(t, g, body)
			if len(g.Blocks) < tc.minBlocks {
				t.Errorf("got %d blocks, want at least %d", len(g.Blocks), tc.minBlocks)
			}
			if g.Entry != g.Blocks[0] {
				t.Errorf("entry is not Blocks[0]")
			}
			if g.Exit != g.Blocks[len(g.Blocks)-1] {
				t.Errorf("exit is not the last block")
			}
			// Edge symmetry: every succ edge has the matching pred edge.
			for _, b := range g.Blocks {
				for _, s := range b.Succs {
					if !containsBlock(s.Preds, b) {
						t.Errorf("block %d -> %d edge missing the pred back-reference", b.Index, s.Index)
					}
				}
			}
		})
	}
}

func containsBlock(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

// FuzzCFGPartition feeds arbitrary Go source through the builder and checks
// the partition contract — every statement in exactly one block, edges
// symmetric — on whatever parses.
func FuzzCFGPartition(f *testing.F) {
	seeds := []string{
		"package p\nfunc f() { x := 1; _ = x }",
		"package p\nfunc f(n int) int {\n\tif n < 0 {\n\t\treturn -n\n\t}\n\treturn n\n}",
		"package p\nfunc f() {\n\tfor i := 0; i < 3; i++ {\n\t\tif i == 1 {\n\t\t\tcontinue\n\t\t}\n\t\tbreak\n\t}\n}",
		"package p\nfunc f(v interface{}) {\n\tswitch x := v.(type) {\n\tcase int:\n\t\t_ = x\n\tdefault:\n\t}\n}",
		"package p\nfunc f(ch chan int) {\n\tselect {\n\tcase v := <-ch:\n\t\t_ = v\n\tdefault:\n\t}\n}",
		"package p\nfunc f() {\nL:\n\tfor {\n\t\tgoto L\n\t}\n}",
		"package p\nfunc f() {\n\tdefer func() { recover() }()\n\tpanic(1)\n}",
		"package p\nfunc f(n int) {\n\tswitch n {\n\tcase 0:\n\t\tfallthrough\n\tcase 1:\n\t\treturn\n\t}\n}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, 0)
		if err != nil {
			t.Skip()
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := BuildCFG(fd.Body)
			checkPartition(t, g, fd.Body)
			for _, b := range g.Blocks {
				for _, s := range b.Succs {
					if !containsBlock(s.Preds, b) {
						t.Errorf("asymmetric edge %d -> %d", b.Index, s.Index)
					}
				}
				for _, p := range b.Preds {
					if !containsBlock(p.Succs, b) {
						t.Errorf("asymmetric pred edge %d <- %d", b.Index, p.Index)
					}
				}
			}
		}
	})
}
