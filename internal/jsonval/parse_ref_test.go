package jsonval

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// referenceParse is the recursive parser this package shipped before the slab
// Parser: one string per key and per string value, member slices grown from
// nil. It is kept as the oracle the differential tests and FuzzParse compare
// Parser, Parse and Decoder against (same tree or same SyntaxError).
func referenceParse(data []byte) (Value, error) {
	p := refParser{data: data}
	p.skipSpace()
	v, err := p.parseValue(0)
	if err != nil {
		return Value{}, err
	}
	p.skipSpace()
	if p.pos != len(p.data) {
		return Value{}, p.errf("unexpected trailing data")
	}
	return v, nil
}

// referenceParsePrefix is the oracle for ParsePrefix.
func referenceParsePrefix(data []byte) (Value, int, error) {
	p := refParser{data: data}
	p.skipSpace()
	v, err := p.parseValue(0)
	if err != nil {
		return Value{}, p.pos, err
	}
	return v, p.pos, nil
}

type refParser struct {
	data []byte
	pos  int
}

func (p *refParser) errf(format string, args ...any) error {
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *refParser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *refParser) parseValue(depth int) (Value, error) {
	if depth > MaxDepth {
		return Value{}, p.errf("maximum nesting depth %d exceeded", MaxDepth)
	}
	if p.pos >= len(p.data) {
		return Value{}, p.errf("unexpected end of input")
	}
	switch c := p.data[p.pos]; c {
	case '{':
		return p.parseObject(depth)
	case '[':
		return p.parseArray(depth)
	case '"':
		s, err := p.parseString()
		if err != nil {
			return Value{}, err
		}
		return StringValue(s), nil
	case 't':
		if err := p.expect("true"); err != nil {
			return Value{}, err
		}
		return BoolValue(true), nil
	case 'f':
		if err := p.expect("false"); err != nil {
			return Value{}, err
		}
		return BoolValue(false), nil
	case 'n':
		if err := p.expect("null"); err != nil {
			return Value{}, err
		}
		return NullValue(), nil
	default:
		if c == '-' || (c >= '0' && c <= '9') {
			return p.parseNumber()
		}
		return Value{}, p.errf("unexpected character %q", c)
	}
}

func (p *refParser) expect(lit string) error {
	if len(p.data)-p.pos < len(lit) || string(p.data[p.pos:p.pos+len(lit)]) != lit {
		return p.errf("invalid literal, expected %q", lit)
	}
	p.pos += len(lit)
	return nil
}

func (p *refParser) parseObject(depth int) (Value, error) {
	p.pos++ // '{'
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == '}' {
		p.pos++
		return ObjectValue(), nil
	}
	var members []Member
	for {
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '"' {
			return Value{}, p.errf("expected object key string")
		}
		key, err := p.parseString()
		if err != nil {
			return Value{}, err
		}
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != ':' {
			return Value{}, p.errf("expected ':' after object key")
		}
		p.pos++
		p.skipSpace()
		v, err := p.parseValue(depth + 1)
		if err != nil {
			return Value{}, err
		}
		members = append(members, Member{Key: key, Value: v})
		p.skipSpace()
		if p.pos >= len(p.data) {
			return Value{}, p.errf("unterminated object")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return ObjectValue(members...), nil
		default:
			return Value{}, p.errf("expected ',' or '}' in object")
		}
	}
}

func (p *refParser) parseArray(depth int) (Value, error) {
	p.pos++ // '['
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == ']' {
		p.pos++
		return ArrayValue(), nil
	}
	var elems []Value
	for {
		p.skipSpace()
		v, err := p.parseValue(depth + 1)
		if err != nil {
			return Value{}, err
		}
		elems = append(elems, v)
		p.skipSpace()
		if p.pos >= len(p.data) {
			return Value{}, p.errf("unterminated array")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			return ArrayValue(elems...), nil
		default:
			return Value{}, p.errf("expected ',' or ']' in array")
		}
	}
}

func (p *refParser) parseString() (string, error) {
	p.pos++ // opening quote
	start := p.pos
	// Fast path: no escapes, no control characters.
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '"' {
			s := string(p.data[start:p.pos])
			p.pos++
			return s, nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
		p.pos++
	}
	// Slow path with escape handling.
	buf := make([]byte, 0, p.pos-start+16)
	buf = append(buf, p.data[start:p.pos]...)
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return string(buf), nil
		case c < 0x20:
			return "", p.errf("unescaped control character 0x%02x in string", c)
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return "", p.errf("unterminated escape sequence")
			}
			switch e := p.data[p.pos]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
				p.pos++
			case 'b':
				buf = append(buf, '\b')
				p.pos++
			case 'f':
				buf = append(buf, '\f')
				p.pos++
			case 'n':
				buf = append(buf, '\n')
				p.pos++
			case 'r':
				buf = append(buf, '\r')
				p.pos++
			case 't':
				buf = append(buf, '\t')
				p.pos++
			case 'u':
				r, err := p.parseUnicodeEscape()
				if err != nil {
					return "", err
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return "", p.errf("invalid escape character %q", e)
			}
		default:
			buf = append(buf, c)
			p.pos++
		}
	}
	return "", p.errf("unterminated string")
}

func (p *refParser) parseUnicodeEscape() (rune, error) {
	p.pos++ // 'u'
	r1, err := p.hex4()
	if err != nil {
		return 0, err
	}
	if utf16.IsSurrogate(rune(r1)) {
		if p.pos+1 < len(p.data) && p.data[p.pos] == '\\' && p.data[p.pos+1] == 'u' {
			save := p.pos
			p.pos += 2
			r2, err := p.hex4()
			if err != nil {
				return 0, err
			}
			if r := utf16.DecodeRune(rune(r1), rune(r2)); r != utf8.RuneError {
				return r, nil
			}
			p.pos = save
		}
		return utf8.RuneError, nil
	}
	return rune(r1), nil
}

func (p *refParser) hex4() (uint32, error) {
	if p.pos+4 > len(p.data) {
		return 0, p.errf("truncated \\u escape")
	}
	var r uint32
	for i := 0; i < 4; i++ {
		c := p.data[p.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | uint32(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | uint32(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | uint32(c-'A'+10)
		default:
			return 0, p.errf("invalid hex digit %q in \\u escape", c)
		}
	}
	p.pos += 4
	return r, nil
}

func (p *refParser) parseNumber() (Value, error) {
	start := p.pos
	isFloat := false
	if p.pos < len(p.data) && p.data[p.pos] == '-' {
		p.pos++
	}
	digits := 0
	for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
		p.pos++
		digits++
	}
	if digits == 0 {
		return Value{}, p.errf("invalid number")
	}
	// Reject leading zeros ("007") per RFC 8259.
	if first := p.data[start]; digits > 1 && (first == '0' || (first == '-' && p.data[start+1] == '0')) {
		return Value{}, p.errf("number has leading zero")
	}
	if p.pos < len(p.data) && p.data[p.pos] == '.' {
		isFloat = true
		p.pos++
		fdigits := 0
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
			fdigits++
		}
		if fdigits == 0 {
			return Value{}, p.errf("missing digits after decimal point")
		}
	}
	if p.pos < len(p.data) && (p.data[p.pos] == 'e' || p.data[p.pos] == 'E') {
		isFloat = true
		p.pos++
		if p.pos < len(p.data) && (p.data[p.pos] == '+' || p.data[p.pos] == '-') {
			p.pos++
		}
		edigits := 0
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
			edigits++
		}
		if edigits == 0 {
			return Value{}, p.errf("missing digits in exponent")
		}
	}
	text := string(p.data[start:p.pos])
	if !isFloat {
		if n, err := strconv.ParseInt(text, 10, 64); err == nil {
			return IntValue(n), nil
		}
		// Out of int64 range: fall through to float.
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil || math.IsInf(f, 0) {
		return Value{}, p.errf("number %q out of range", text)
	}
	return FloatValue(f), nil
}
