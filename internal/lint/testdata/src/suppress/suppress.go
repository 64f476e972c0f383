// Package suppress exercises the //lint:ignore machinery: same-line and
// line-above suppressions, an unsuppressed finding, a malformed ignore
// comment, and an ignore naming an analyzer outside the suite.
package suppress

import "time"

// SameLine suppresses on the offending line itself.
func SameLine() int64 {
	return time.Now().UnixNano() //lint:ignore determinism fixture exercises same-line suppression
}

// LineAbove suppresses from the line directly above.
func LineAbove() int64 {
	//lint:ignore determinism fixture exercises line-above suppression
	return time.Now().UnixNano()
}

// Unsuppressed must still be reported.
func Unsuppressed() int64 {
	return time.Now().UnixNano()
}

// Malformed carries an ignore comment without a reason, which is itself a
// finding.
func Malformed() int64 {
	//lint:ignore determinism
	return time.Now().UnixNano()
}

// Unknown names an analyzer outside the suite, which is itself a finding.
func Unknown() {} //lint:ignore nonesuch the analyzer this names does not exist
