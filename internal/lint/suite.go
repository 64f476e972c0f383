package lint

// Analyzers returns the default suite with the repository's scopes applied:
// the machine-checked invariants of DESIGN.md §"Machine-checked
// invariants", in report order.
func Analyzers() []Analyzer {
	return []Analyzer{
		NewAtomicwrite(AtomicWriteScope...),
		NewDeterminism(DeterminismScope...),
		NewFsboundary(FsboundaryScope...),
		NewObsvocab(),
	}
}

// ByName returns the subset of the default suite with the given names, in
// the given order; unknown names return nil, false.
func ByName(names []string) ([]Analyzer, bool) {
	all := Analyzers()
	var out []Analyzer
	for _, name := range names {
		found := false
		for _, a := range all {
			if a.Name() == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}
