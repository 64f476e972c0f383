package jsonval

import (
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// AppendJSON appends the compact JSON encoding of v to dst and returns the
// extended slice.
func AppendJSON(dst []byte, v Value) []byte {
	switch v.kind {
	case Null:
		return append(dst, "null"...)
	case Bool:
		if v.boolean() {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case Int:
		return strconv.AppendInt(dst, v.int(), 10)
	case Float:
		return appendFloat(dst, v.float())
	case String:
		return AppendQuoted(dst, v.str())
	case Array:
		dst = append(dst, '[')
		for i, e := range v.elems() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSON(dst, e)
		}
		return append(dst, ']')
	case Object:
		dst = append(dst, '{')
		for i, m := range v.mems() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendQuoted(dst, m.Key)
			dst = append(dst, ':')
			dst = AppendJSON(dst, m.Value)
		}
		return append(dst, '}')
	default:
		return append(dst, "null"...)
	}
}

func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		// JSON cannot represent these; null is the conventional fallback.
		return append(dst, "null"...)
	}
	dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	// Keep the float/int distinction visible in text form so a round trip
	// through the serialiser preserves the kind.
	if !hasFloatSyntax(dst) {
		dst = append(dst, '.', '0')
	}
	return dst
}

func hasFloatSyntax(b []byte) bool {
	for i := len(b) - 1; i >= 0; i-- {
		switch b[i] {
		case '.', 'e', 'E':
			return true
		case ',', '[', '{', ':':
			return false
		}
	}
	return false
}

// AppendQuoted appends s as a JSON string literal, escaping as required by
// RFC 8259. Invalid UTF-8 bytes are replaced with U+FFFD.
func AppendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' && c < utf8.RuneSelf {
			i++
			continue
		}
		dst = append(dst, s[start:i]...)
		if c < utf8.RuneSelf {
			switch c {
			case '"':
				dst = append(dst, '\\', '"')
			case '\\':
				dst = append(dst, '\\', '\\')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigit(c>>4), hexDigit(c&0xf))
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = utf8.AppendRune(dst, utf8.RuneError)
		} else {
			dst = append(dst, s[i:i+size]...)
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

func hexDigit(b byte) byte {
	if b < 10 {
		return '0' + b
	}
	return 'a' + b - 10
}

func writeValue(sb *strings.Builder, v Value) {
	sb.Write(AppendJSON(nil, v))
}

// Write encodes v to w as compact JSON followed by a newline, the
// line-delimited format BETZE datasets are stored in.
func Write(w io.Writer, v Value) error {
	buf := AppendJSON(nil, v)
	buf = append(buf, '\n')
	_, err := w.Write(buf)
	return err
}
