package jsonval

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// MaxDepth bounds parser recursion. Real-world exploration datasets (Twitter,
// Reddit) nest a handful of levels; the bound protects against adversarial
// inputs without affecting legitimate documents.
const MaxDepth = 256

// SyntaxError describes a malformed JSON input.
type SyntaxError struct {
	Offset int // byte offset at which the error was detected
	Msg    string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("jsonval: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// Parse decodes a single JSON value from data. Trailing non-whitespace input
// is an error.
func Parse(data []byte) (Value, error) {
	var p Parser
	return p.Parse(data)
}

// ParsePrefix decodes one JSON value from the front of data and returns the
// number of bytes consumed. It is the building block for streams of
// concatenated or newline-delimited documents.
func ParsePrefix(data []byte) (Value, int, error) {
	var p Parser
	return p.ParsePrefix(data)
}

const (
	// Chunks double from minChunk to maxChunk elements ([]Member, []Value) and
	// from 64× that in bytes (1 to 64 KiB, strings): one small document
	// allocates little, a file allocates rarely.
	minChunk, maxChunk = 16, 1024
	strChunkScale      = 64
	// The intern table holds at most maxKeys member names of at most
	// maxKeyLen bytes; the rest are copied like string values.
	maxKeys, maxKeyLen = 4096, 64
)

// slab hands out exact-size pieces of chunked backing arrays. A chunk dies
// with the last value that points into it, unless the parser is recycled:
// from its first recycle on, a slab keeps every chunk it starts, and each
// recycle hands them out again from the first, so values that spanned
// several chunks before a recycle fit in the same chunks after it.
type slab[T any] struct {
	chunk []T // the current chunk; chunk[:used] has been handed out
	used  int
	mark  int // where the parse in progress started in chunk; a failed one resets used to it
	next  int // nominal size of the current chunk; the next one doubles it

	keep   bool  // the parser has been recycled: chunks lists every chunk
	chunks [][]T // with keep, the chunks in the order they were started
	cur    int   // with keep, the index of chunk in chunks
}

// carve returns n elements with cap == len, moving on to the next kept chunk
// or starting a new one when the current one is too short; room bounds how
// many more the caller can still need, so that no chunk is larger than its
// input could fill.
func (s *slab[T]) carve(n, room, scale int) []T {
	if n > len(s.chunk)-s.used {
		s.advance(n, room, scale)
	}
	s.used += n
	return s.chunk[s.used-n : s.used : s.used]
}

func (s *slab[T]) advance(n, room, scale int) {
	s.used, s.mark = 0, 0
	for s.cur+1 < len(s.chunks) {
		s.cur++
		if s.chunk = s.chunks[s.cur]; n <= len(s.chunk) {
			return
		}
	}
	s.next = min(max(2*s.next, minChunk*scale), maxChunk*scale)
	s.chunk = make([]T, max(n, min(s.next, n+room)))
	if s.keep {
		s.chunks = append(s.chunks, s.chunk)
		s.cur = len(s.chunks) - 1
	}
}

// recycle starts handing out the kept chunks again from the first.
func (s *slab[T]) recycle() {
	if !s.keep {
		s.keep = true
		if s.chunk != nil {
			s.chunks = append(s.chunks, s.chunk)
		}
	}
	if len(s.chunks) > 0 {
		s.chunk, s.cur = s.chunks[0], 0
	}
	s.used = 0
}

// Parser decodes JSON values into slab-backed trees. The zero value is ready;
// one goroutine at a time. Reusing a Parser for the documents of a file is
// what makes parsing cheap: composites are assembled on scratch stacks and
// carved exact-size out of shared chunks, string payloads are copied into a
// byte slab, and member names — the same in every document — are interned.
// Returned values never alias the input and are never overwritten by later
// calls, unless the caller recycles the parser (see Recycle). A parser's
// first document, which is all the one-shot Parse and ParsePrefix ever see,
// is parsed frugally: chunks bounded by what the rest of the input could
// need, no intern table.
type Parser struct {
	data []byte
	pos  int
	// short: the last parse ran out of input — an error at len(data) (or in
	// a literal or \u escape cut by it), or a number ending there. Only then
	// can more input change the outcome; Decoder refills on nothing else.
	short  bool
	reused bool

	elemStack []Value  // elements of the arrays being parsed
	memStack  []Member // members of the objects being parsed
	esc       []byte   // a string with escapes, decoded

	elems slab[Value]
	mems  slab[Member]
	strs  slab[byte]
	keys  map[string]string
}

// Recycle lets the next parse reuse the slab space of every value the parser
// has returned: a caller that is done with them — it walked each document
// once and kept copies of what it needed — stops allocating once the
// parser's chunks fit what it parses between recycles, be that one document
// or a batch of them. Those values must not be read again: later parses
// overwrite their strings and composites.
func (p *Parser) Recycle() {
	p.elems.recycle()
	p.mems.recycle()
	p.strs.recycle()
}

// Parse decodes a single JSON value from data, like the package-level Parse.
func (p *Parser) Parse(data []byte) (Value, error) {
	v, n, err := p.ParsePrefix(data)
	for ; err == nil && n < len(data); n++ {
		if !isSpace(data[n]) {
			return Value{}, &SyntaxError{Offset: n, Msg: "unexpected trailing data"}
		}
	}
	return v, err
}

// ParsePrefix decodes one JSON value from the front of data and returns the
// number of bytes consumed, like the package-level ParsePrefix.
func (p *Parser) ParsePrefix(data []byte) (Value, int, error) {
	if p.reused && p.keys == nil {
		p.keys = make(map[string]string)
	}
	p.data, p.pos, p.short = data, 0, false
	p.elemStack, p.memStack = p.elemStack[:0], p.memStack[:0]
	p.elems.mark, p.mems.mark, p.strs.mark = p.elems.used, p.mems.used, p.strs.used
	p.skipSpace()
	v, err := p.parseValue(0)
	if err != nil {
		// Nothing of a failed parse is returned: carve its pieces again.
		p.elems.used, p.mems.used, p.strs.used = p.elems.mark, p.mems.mark, p.strs.mark
	}
	p.data, p.reused = nil, true
	return v, p.pos, err
}

// room bounds how many more elements of at least per bytes each the rest of
// the input can hold; it binds only on a parser's first document.
func (p *Parser) room(per int) int {
	if p.reused {
		return maxChunk * strChunkScale
	}
	return (len(p.data) - p.pos) / per
}

func (p *Parser) errf(format string, args ...any) error {
	p.short = p.pos >= len(p.data)
	return &SyntaxError{Offset: p.pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) skipSpace() {
	for p.pos < len(p.data) && isSpace(p.data[p.pos]) {
		p.pos++
	}
}

func (p *Parser) parseValue(depth int) (Value, error) {
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
		s, err := p.parseString(false)
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

func (p *Parser) expect(lit string) error {
	rest := p.data[p.pos:]
	if len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
		p.pos += len(lit)
		return nil
	}
	err := p.errf("invalid literal, expected %q", lit)
	p.short = len(rest) < len(lit) && string(rest) == lit[:len(rest)]
	return err
}

func (p *Parser) parseObject(depth int) (Value, error) {
	p.pos++ // '{'
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == '}' {
		p.pos++
		return ObjectValue(), nil
	}
	base := len(p.memStack)
	for {
		p.skipSpace()
		if p.pos >= len(p.data) || p.data[p.pos] != '"' {
			return Value{}, p.errf("expected object key string")
		}
		key, err := p.parseString(true)
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
		if cap(p.memStack) == 0 {
			p.memStack = make([]Member, 0, min(minChunk, 1+p.room(5)))
		}
		p.memStack = append(p.memStack, Member{Key: key, Value: v})
		p.skipSpace()
		if p.pos >= len(p.data) {
			return Value{}, p.errf("unterminated object")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			// `"":0,` — a member takes at least five input bytes.
			members := p.mems.carve(len(p.memStack)-base, p.room(5), 1)
			copy(members, p.memStack[base:])
			p.memStack = p.memStack[:base]
			return ObjectValue(members...), nil
		default:
			return Value{}, p.errf("expected ',' or '}' in object")
		}
	}
}

func (p *Parser) parseArray(depth int) (Value, error) {
	p.pos++ // '['
	p.skipSpace()
	if p.pos < len(p.data) && p.data[p.pos] == ']' {
		p.pos++
		return ArrayValue(), nil
	}
	base := len(p.elemStack)
	for {
		p.skipSpace()
		v, err := p.parseValue(depth + 1)
		if err != nil {
			return Value{}, err
		}
		if cap(p.elemStack) == 0 {
			p.elemStack = make([]Value, 0, min(minChunk, 1+p.room(2)))
		}
		p.elemStack = append(p.elemStack, v)
		p.skipSpace()
		if p.pos >= len(p.data) {
			return Value{}, p.errf("unterminated array")
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case ']':
			p.pos++
			// `0,` — an element takes at least two input bytes.
			elems := p.elems.carve(len(p.elemStack)-base, p.room(2), 1)
			copy(elems, p.elemStack[base:])
			p.elemStack = p.elemStack[:base]
			return ArrayValue(elems...), nil
		default:
			return Value{}, p.errf("expected ',' or ']' in array")
		}
	}
}

// keep returns b as a string that outlives the input: an interned member
// name, or a copy in the string slab.
func (p *Parser) keep(b []byte, key bool) string {
	if key && len(b) <= maxKeyLen {
		if s, ok := p.keys[string(b)]; ok {
			return s
		}
		if p.keys != nil && len(p.keys) < maxKeys {
			s := string(b)
			p.keys[s] = s
			return s
		}
	}
	if len(b) == 0 {
		return ""
	}
	out := p.strs.carve(len(b), p.room(1), strChunkScale)
	copy(out, b)
	return unsafe.String(&out[0], len(out))
}

func (p *Parser) parseString(key bool) (string, error) {
	p.pos++ // opening quote
	start := p.pos
	// Fast path: no escapes, no control characters.
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '"' {
			s := p.keep(p.data[start:p.pos], key)
			p.pos++
			return s, nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
		p.pos++
	}
	return p.parseEscaped(start, key)
}

// parseEscaped is parseString's slow path, from the first escape or control
// character on: decode into p.esc, then keep that.
func (p *Parser) parseEscaped(start int, key bool) (string, error) {
	buf := append(p.esc[:0], p.data[start:p.pos]...)
	defer func() { p.esc = buf }()
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return p.keep(buf, key), nil
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

func (p *Parser) parseUnicodeEscape() (rune, error) {
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

func (p *Parser) hex4() (uint32, error) {
	if p.pos+4 > len(p.data) {
		err := p.errf("truncated \\u escape")
		p.short = true
		return 0, err
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

// digits advances over a run of decimal digits and returns its length.
func (p *Parser) digits() int {
	start := p.pos
	for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
		p.pos++
	}
	return p.pos - start
}

func (p *Parser) parseNumber() (Value, error) {
	start := p.pos
	isFloat := false
	if p.data[p.pos] == '-' {
		p.pos++
	}
	first := p.pos
	digits := p.digits()
	if digits == 0 {
		return Value{}, p.errf("invalid number")
	}
	// Reject leading zeros ("007") per RFC 8259.
	if digits > 1 && p.data[first] == '0' {
		return Value{}, p.errf("number has leading zero")
	}
	if p.pos < len(p.data) && p.data[p.pos] == '.' {
		isFloat = true
		p.pos++
		if p.digits() == 0 {
			return Value{}, p.errf("missing digits after decimal point")
		}
	}
	if p.pos < len(p.data) && (p.data[p.pos] == 'e' || p.data[p.pos] == 'E') {
		isFloat = true
		p.pos++
		if p.pos < len(p.data) && (p.data[p.pos] == '+' || p.data[p.pos] == '-') {
			p.pos++
		}
		if p.digits() == 0 {
			return Value{}, p.errf("missing digits in exponent")
		}
	}
	// "-2" at the end of the input may be the prefix of "-2.5e9".
	p.short = p.pos == len(p.data)
	if !isFloat && digits <= 18 { // cannot overflow an int64
		var n int64
		for _, c := range p.data[first:p.pos] {
			n = n*10 + int64(c-'0')
		}
		if first > start {
			n = -n
		}
		return IntValue(n), nil
	}
	// strconv keeps no reference to its argument, so a view will do.
	text := unsafe.String(&p.data[start], p.pos-start)
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

// Decoder reads a stream of concatenated and/or newline-delimited JSON
// documents, the on-disk format of all BETZE datasets.
type Decoder struct {
	p      Parser
	r      io.Reader
	buf    []byte
	start  int // unconsumed data begins here
	end    int // valid data ends here
	offset int // stream offset of buf[0]
	err    error
}

// NewDecoder returns a Decoder reading from r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, buf: make([]byte, 0, 64*1024)}
}

// Decode returns the next document in the stream, or io.EOF when the stream
// is exhausted.
func (d *Decoder) Decode() (Value, error) {
	for {
		d.skipBufferedSpace()
		if d.start < d.end {
			v, n, err := d.p.ParsePrefix(d.buf[d.start:d.end])
			// Only a parse that ran out of input can come out differently
			// with more of it: the document is split across reads, or a
			// number touches the end of the buffer ("-2" may be the prefix of
			// "-2.5e9"). Any other error is authoritative at once, as is
			// every outcome once the source is exhausted.
			if d.p.short && d.err == nil {
				if ferr := d.fill(); ferr == nil {
					continue
				}
			}
			if err == nil {
				d.start += n
				return v, nil
			}
			if se, ok := err.(*SyntaxError); ok {
				se.Offset += d.offset + d.start
			}
			return Value{}, err
		}
		if d.err != nil {
			return Value{}, d.err
		}
		if err := d.fill(); err != nil && d.start >= d.end {
			return Value{}, err
		}
	}
}

// Recycle lets the next Decode reuse the memory of every document decoded
// so far, as Parser.Recycle does.
func (d *Decoder) Recycle() { d.p.Recycle() }

func (d *Decoder) skipBufferedSpace() {
	for d.start < d.end && isSpace(d.buf[d.start]) {
		d.start++
	}
}

func (d *Decoder) fill() error {
	if d.err != nil {
		return d.err
	}
	if d.start > 0 {
		n := copy(d.buf[:cap(d.buf)], d.buf[d.start:d.end])
		d.offset += d.start
		d.buf = d.buf[:n]
		d.start, d.end = 0, n
	}
	if d.end == cap(d.buf) {
		grown := make([]byte, d.end, 2*cap(d.buf))
		copy(grown, d.buf[:d.end])
		d.buf = grown
	}
	n, err := d.r.Read(d.buf[d.end:cap(d.buf)])
	d.buf = d.buf[:d.end+n]
	d.end += n
	if err != nil {
		d.err = err
		if n == 0 {
			return err
		}
	}
	return nil
}
