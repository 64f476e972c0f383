package jsonval

// The oracle and the differential check, for the external test package: it
// may import internal/datasets, which this package cannot (datasets imports
// it).
var (
	ReferenceParse        = referenceParse
	CheckAgainstReference = checkAgainstReference
	StrictEqual           = strictEqual
)
