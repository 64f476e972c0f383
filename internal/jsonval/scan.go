package jsonval

// ScanValue reports the length in bytes of the first complete JSON value in
// data, including leading whitespace, without building a value tree. It
// returns 0 when data holds only the prefix of a value, or only whitespace;
// atEOF indicates no further input will arrive, which resolves the ambiguity
// of top-level numbers ("12" may be the prefix of "123") and makes the
// prefix of any other value a SyntaxError at the offset where it starts.
//
// The scanner validates only as much structure as boundary detection needs;
// callers parse the returned chunk for full validation. A chunk that cannot
// even be scanned yields a SyntaxError.
func ScanValue(data []byte, atEOF bool) (int, error) {
	i := 0
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	if i == len(data) {
		return 0, nil
	}
	switch c := data[i]; {
	case c == '{' || c == '[':
		return cut(i, scanComposite(data[i:]), atEOF, "truncated object or array")
	case c == '"':
		return cut(i, scanString(data[i:]), atEOF, "truncated string")
	case c == 't':
		return scanLiteral(data, i, "true", atEOF)
	case c == 'f':
		return scanLiteral(data, i, "false", atEOF)
	case c == 'n':
		return scanLiteral(data, i, "null", atEOF)
	case c == '-' || (c >= '0' && c <= '9'):
		j := i
		for j < len(data) && isNumberChar(data[j]) {
			j++
		}
		if j == len(data) && !atEOF {
			return 0, nil // may continue in the next read
		}
		return j, nil
	default:
		return 0, &SyntaxError{Offset: i, Msg: "unexpected character at document start"}
	}
}

// cut turns the length n of the value that starts at offset i into
// ScanValue's result: a value that has not ended (n == 0) needs more input,
// and at EOF it never gets any.
func cut(i, n int, atEOF bool, msg string) (int, error) {
	switch {
	case n > 0:
		return i + n, nil
	case atEOF:
		return 0, &SyntaxError{Offset: i, Msg: msg}
	}
	return 0, nil
}

func scanLiteral(data []byte, i int, lit string, atEOF bool) (int, error) {
	avail := len(data) - i
	if avail > len(lit) {
		avail = len(lit)
	}
	if string(data[i:i+avail]) != lit[:avail] {
		return 0, &SyntaxError{Offset: i, Msg: "invalid literal"}
	}
	if avail < len(lit) {
		if atEOF {
			return 0, &SyntaxError{Offset: i, Msg: "truncated literal"}
		}
		return 0, nil
	}
	return i + len(lit), nil
}

// scanComposite walks the object or array at the start of data, tracking
// nesting depth and string state. It returns 0 when data ends inside the
// value.
func scanComposite(data []byte) int {
	depth := 0
	i := 0
	for i < len(data) {
		switch data[i] {
		case '{', '[':
			depth++
			i++
		case '}', ']':
			depth--
			i++
			if depth == 0 {
				return i
			}
		case '"':
			n := scanString(data[i:])
			if n == 0 {
				return 0
			}
			i += n
		default:
			i++
		}
	}
	return 0
}

// scanString returns the byte length of the string literal at the start of
// data (including quotes), or 0 if it is unterminated.
func scanString(data []byte) int {
	for i := 1; i < len(data); i++ {
		switch data[i] {
		case '\\':
			i++ // skip escaped character (may be the closing quote)
		case '"':
			return i + 1
		}
	}
	return 0
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func isNumberChar(c byte) bool {
	return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E'
}
