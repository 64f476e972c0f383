package query

import "testing"

// benchPredicate is a predicate-heavy tree: deep AND/OR nesting mixing cheap
// existence/type checks with string prefix work, the shape the cost model is
// designed to reorder.
func benchPredicate() Predicate {
	return And{
		Left: Or{
			Left:  HasPrefix{Path: "/c", Prefix: "be"},
			Right: And{Left: Exists{Path: "/d/e"}, Right: IntEq{Path: "/a", Value: 3}},
		},
		Right: And{
			Left: Or{
				Left:  StrEq{Path: "/c", Value: "betze"},
				Right: FloatCmp{Path: "/b", Op: Ge, Value: 0.25},
			},
			Right: Or{
				Left:  IsString{Path: "/c"},
				Right: BoolEq{Path: "/flag", Value: true},
			},
		},
	}
}

func BenchmarkCompile(b *testing.B) {
	p := benchPredicate()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compile(p)
	}
}
