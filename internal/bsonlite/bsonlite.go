// Package bsonlite implements a BSON-style binary document format: a
// length-prefixed sequence of type-tagged, name-prefixed elements, with
// arrays encoded as documents keyed "0", "1", …. It is the storage format of
// the MongoDB stand-in engine (internal/engine/mongosim).
//
// The format intentionally mirrors real BSON's access characteristics:
// a path lookup walks element headers and skips values by their encoded
// length without materialising the document, while full decoding builds the
// complete value tree.
package bsonlite

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"github.com/joda-explore/betze/internal/jsonval"
)

// Element type tags, matching BSON's where possible.
const (
	tagDouble = 0x01
	tagString = 0x02
	tagDoc    = 0x03
	tagArray  = 0x04
	tagBool   = 0x08
	tagNull   = 0x0A
	tagInt64  = 0x12

	// tagRoot marks the one element of a root wrapper (see Encode). Real
	// BSON tags stay below it, so no object encodes to a wrapper.
	tagRoot = 0x80
)

// CorruptError reports a structurally invalid document.
type CorruptError struct {
	Offset int
	Msg    string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("bsonlite: corrupt document at offset %d: %s", e.Offset, e.Msg)
}

// Encode appends the binary encoding of doc to dst. Any JSON value is
// encodable; a non-object root is wrapped, like the MongoDB shell does, as a
// single-element document with an empty key whose tag carries tagRoot. The
// mark tells the wrapper from an object that holds one empty-key member,
// such as {"":{"a":1}}, which encodes as it reads.
func Encode(dst []byte, doc jsonval.Value) []byte {
	if doc.Kind() == jsonval.Object {
		return encodeDoc(dst, doc.Members())
	}
	start := len(dst)
	dst = encodeDoc(dst, []jsonval.Member{{Key: "", Value: doc}})
	dst[start+4] |= tagRoot
	return dst
}

func encodeDoc(dst []byte, members []jsonval.Member) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length placeholder
	for _, m := range members {
		dst = encodeElement(dst, m.Key, m.Value)
	}
	dst = append(dst, 0) // terminator
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start))
	return dst
}

func encodeArray(dst []byte, elems []jsonval.Value) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	for i, e := range elems {
		dst = encodeElement(dst, strconv.Itoa(i), e)
	}
	dst = append(dst, 0)
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start))
	return dst
}

func encodeElement(dst []byte, key string, v jsonval.Value) []byte {
	switch v.Kind() {
	case jsonval.Null:
		dst = append(dst, tagNull)
		dst = appendCString(dst, key)
	case jsonval.Bool:
		dst = append(dst, tagBool)
		dst = appendCString(dst, key)
		if v.Bool() {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	case jsonval.Int:
		dst = append(dst, tagInt64)
		dst = appendCString(dst, key)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Int()))
	case jsonval.Float:
		dst = append(dst, tagDouble)
		dst = appendCString(dst, key)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float()))
	case jsonval.String:
		dst = append(dst, tagString)
		dst = appendCString(dst, key)
		s := v.Str()
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)+1))
		dst = append(dst, s...)
		dst = append(dst, 0)
	case jsonval.Object:
		dst = append(dst, tagDoc)
		dst = appendCString(dst, key)
		dst = encodeDoc(dst, v.Members())
	case jsonval.Array:
		dst = append(dst, tagArray)
		dst = appendCString(dst, key)
		dst = encodeArray(dst, v.Array())
	}
	return dst
}

// appendCString appends a NUL-terminated key. Embedded NUL bytes in keys are
// not representable (as in real BSON) and are replaced.
func appendCString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			dst = append(dst, 0xEF, 0xBF, 0xBD) // U+FFFD
			continue
		}
		dst = append(dst, s[i])
	}
	return append(dst, 0)
}

// Decode materialises a full document.
func Decode(data []byte) (jsonval.Value, error) {
	r, end, err := root(data)
	if err != nil {
		return jsonval.Value{}, err
	}
	v, n, err := decodeValue(data, r.off, r.Tag)
	if err != nil {
		return jsonval.Value{}, err
	}
	if end < 0 {
		end = n
	}
	if end != len(data) {
		return jsonval.Value{}, &CorruptError{Offset: end, Msg: "trailing bytes"}
	}
	return v, nil
}

// root returns the root value of doc: the document itself, or the value
// its root wrapper holds. For a wrapper it also returns the offset just past
// the document, whose terminator it has checked; for a plain document end
// is -1 and nothing is checked yet.
func root(doc []byte) (r Raw, end int, err error) {
	if len(doc) < 5 || doc[4]&tagRoot == 0 {
		return Raw{Tag: tagDoc, data: doc}, -1, nil
	}
	i, end, err := docBounds(doc, 0)
	if err != nil {
		return Raw{}, 0, err
	}
	key, val, err := elementKey(doc, i, end)
	if err != nil {
		return Raw{}, 0, err
	}
	tag := doc[i] &^ tagRoot
	if len(key) != 0 || tag == tagDoc {
		return Raw{}, 0, &CorruptError{Offset: i, Msg: "malformed root wrapper"}
	}
	n, err := skipValue(doc, val, tag)
	if err != nil {
		return Raw{}, 0, err
	}
	if n != end-1 || doc[n] != 0 {
		return Raw{}, 0, &CorruptError{Offset: n, Msg: "root wrapper holds more than one value"}
	}
	return Raw{Tag: tag, data: doc, off: val}, end, nil
}

func decodeDoc(data []byte, off int, asArray bool) (jsonval.Value, int, error) {
	i, end, err := docBounds(data, off)
	if err != nil {
		return jsonval.Value{}, 0, err
	}
	var members []jsonval.Member
	var elems []jsonval.Value
	for {
		if i >= end {
			return jsonval.Value{}, 0, &CorruptError{Offset: i, Msg: "missing terminator"}
		}
		tag := data[i]
		if tag == 0 {
			if i != end-1 {
				return jsonval.Value{}, 0, &CorruptError{Offset: i, Msg: "terminator before document end"}
			}
			break
		}
		key, val, err := elementKey(data, i, end)
		if err != nil {
			return jsonval.Value{}, 0, err
		}
		v, n, err := decodeValue(data, val, tag)
		if err != nil {
			return jsonval.Value{}, 0, err
		}
		i = n
		if asArray {
			elems = append(elems, v)
		} else {
			members = append(members, jsonval.Member{Key: string(key), Value: v})
		}
	}
	if asArray {
		return jsonval.ArrayValue(elems...), end, nil
	}
	return jsonval.ObjectValue(members...), end, nil
}

// decodeValue decodes the value of an element whose tag and key were read;
// it returns the offset after the value.
func decodeValue(data []byte, off int, tag byte) (jsonval.Value, int, error) {
	switch tag {
	case tagNull:
		return jsonval.NullValue(), off, nil
	case tagBool:
		if off+1 > len(data) {
			return jsonval.Value{}, 0, &CorruptError{Offset: off, Msg: "truncated bool"}
		}
		return jsonval.BoolValue(data[off] != 0), off + 1, nil
	case tagInt64:
		if off+8 > len(data) {
			return jsonval.Value{}, 0, &CorruptError{Offset: off, Msg: "truncated int64"}
		}
		return jsonval.IntValue(int64(binary.LittleEndian.Uint64(data[off:]))), off + 8, nil
	case tagDouble:
		if off+8 > len(data) {
			return jsonval.Value{}, 0, &CorruptError{Offset: off, Msg: "truncated double"}
		}
		return jsonval.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))), off + 8, nil
	case tagString:
		if off+4 > len(data) {
			return jsonval.Value{}, 0, &CorruptError{Offset: off, Msg: "truncated string header"}
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if n < 1 || off+n > len(data) {
			return jsonval.Value{}, 0, &CorruptError{Offset: off, Msg: "string length out of bounds"}
		}
		return jsonval.StringValue(string(data[off : off+n-1])), off + n, nil
	case tagDoc:
		return decodeDoc(data, off, false)
	case tagArray:
		return decodeDoc(data, off, true)
	default:
		return jsonval.Value{}, 0, &CorruptError{Offset: off, Msg: fmt.Sprintf("unknown tag 0x%02x", tag)}
	}
}

// docBounds validates the header of the document at off and returns the
// offset of its first element and its end.
func docBounds(data []byte, off int) (first, end int, err error) {
	if off+5 > len(data) {
		return 0, 0, &CorruptError{Offset: off, Msg: "truncated document header"}
	}
	total := int(binary.LittleEndian.Uint32(data[off:]))
	end = off + total
	if total < 5 || end > len(data) {
		return 0, 0, &CorruptError{Offset: off, Msg: "document length out of bounds"}
	}
	return off + 4, end, nil
}

// elementKey returns the key of the element whose tag byte is at i, as a
// sub-slice of data so callers can match it in place, and the offset of the
// element's value. The key must terminate inside its document.
func elementKey(data []byte, i, end int) (key []byte, val int, err error) {
	n := bytes.IndexByte(data[i+1:end], 0)
	if n < 0 {
		return nil, 0, &CorruptError{Offset: i + 1, Msg: "unterminated key"}
	}
	return data[i+1 : i+1+n], i + n + 2, nil
}

// skipValue returns the offset just past a value, without materialising it.
// The result never exceeds len(data).
func skipValue(data []byte, off int, tag byte) (int, error) {
	n := 0
	switch tag {
	case tagNull:
	case tagBool:
		n = 1
	case tagInt64, tagDouble:
		n = 8
	case tagString, tagDoc, tagArray:
		if off+4 > len(data) {
			return 0, &CorruptError{Offset: off, Msg: "truncated length header"}
		}
		n = int(binary.LittleEndian.Uint32(data[off:]))
		if tag == tagString {
			n += 4
		}
	default:
		return 0, &CorruptError{Offset: off, Msg: fmt.Sprintf("unknown tag 0x%02x", tag)}
	}
	if off+n > len(data) {
		return 0, &CorruptError{Offset: off, Msg: "value length out of bounds"}
	}
	return off + n, nil
}

// Raw is an undecoded value inside a document: its tag and the byte range of
// its payload.
type Raw struct {
	Tag  byte
	data []byte
	off  int
}

// Lookup walks the document along path without materialising values,
// mirroring how MongoDB navigates BSON. It returns ok=false when any segment
// is missing or traverses a non-document.
//
// No production caller (engines pre-split the path and call LookupSteps);
// kept for benchmark/replay.go until a benchmark PR drops the row.
func Lookup(doc []byte, path jsonval.Path) (Raw, bool, error) {
	return LookupSteps(doc, path.Steps())
}

// LookupSteps is Lookup over a pre-split step slice (from Path.Steps). Keys
// are matched in place, so the walk allocates nothing.
func LookupSteps(doc []byte, steps []string) (Raw, bool, error) {
	cur, _, err := root(doc)
	if err != nil {
		return Raw{}, false, err
	}
	for _, seg := range steps {
		if cur.Tag != tagDoc {
			return Raw{}, false, nil
		}
		i, end, err := docBounds(doc, cur.off)
		if err != nil {
			return Raw{}, false, err
		}
		found := false
		for i < end && doc[i] != 0 {
			tag := doc[i]
			key, val, err := elementKey(doc, i, end)
			if err != nil {
				return Raw{}, false, err
			}
			if string(key) == seg {
				cur = Raw{Tag: tag, data: doc, off: val}
				found = true
				break
			}
			if i, err = skipValue(doc, val, tag); err != nil {
				return Raw{}, false, err
			}
		}
		if !found {
			return Raw{}, false, nil
		}
	}
	return cur, true, nil
}

// Kind maps the raw tag to the JSON kind.
func (r Raw) Kind() jsonval.Kind {
	switch r.Tag {
	case tagNull:
		return jsonval.Null
	case tagBool:
		return jsonval.Bool
	case tagInt64:
		return jsonval.Int
	case tagDouble:
		return jsonval.Float
	case tagString:
		return jsonval.String
	case tagDoc:
		return jsonval.Object
	case tagArray:
		return jsonval.Array
	default:
		return jsonval.Null
	}
}

// Number returns the numeric payload of an int64 or double value.
func (r Raw) Number() (float64, bool) {
	switch r.Tag {
	case tagInt64:
		if r.off+8 > len(r.data) {
			return 0, false
		}
		return float64(int64(binary.LittleEndian.Uint64(r.data[r.off:]))), true
	case tagDouble:
		if r.off+8 > len(r.data) {
			return 0, false
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:])), true
	default:
		return 0, false
	}
}

// Bool returns the boolean payload.
func (r Raw) Bool() (bool, bool) {
	if r.Tag != tagBool || r.off >= len(r.data) {
		return false, false
	}
	return r.data[r.off] != 0, true
}

// str returns the string payload in place.
func (r Raw) str() ([]byte, bool) {
	if r.Tag != tagString || r.off+4 > len(r.data) {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(r.data[r.off:]))
	start := r.off + 4
	if n < 1 || start+n > len(r.data) {
		return nil, false
	}
	return r.data[start : start+n-1], true
}

// EqualString reports whether the value is a string equal to s, comparing
// the payload in place.
func (r Raw) EqualString(s string) bool {
	b, ok := r.str()
	return ok && string(b) == s
}

// HasPrefix reports whether the value is a string starting with prefix,
// comparing the payload in place.
func (r Raw) HasPrefix(prefix string) bool {
	b, ok := r.str()
	return ok && len(b) >= len(prefix) && string(b[:len(prefix)]) == prefix
}

// Len counts the elements of a document or array value by walking headers.
func (r Raw) Len() (int, bool) {
	if r.Tag != tagDoc && r.Tag != tagArray {
		return 0, false
	}
	i, end, err := docBounds(r.data, r.off)
	if err != nil {
		return 0, false
	}
	count := 0
	for i < end && r.data[i] != 0 {
		_, val, err := elementKey(r.data, i, end)
		if err != nil {
			return 0, false
		}
		if i, err = skipValue(r.data, val, r.data[i]); err != nil {
			return 0, false
		}
		count++
	}
	return count, true
}

// Value materialises the raw value.
func (r Raw) Value() (jsonval.Value, error) {
	v, _, err := decodeValue(r.data, r.off, r.Tag)
	return v, err
}

// AppendJSON appends the JSON text of the encoded document to dst, byte for
// byte what jsonval.AppendJSON(dst, v) appends for the v that Decode(doc)
// returns, and fails exactly when Decode fails — without building the value
// tree. On error dst is returned unextended.
func AppendJSON(dst, doc []byte) ([]byte, error) {
	base := len(dst)
	r, end, err := root(doc)
	n := 0
	if err == nil {
		dst, n, err = appendValue(dst, doc, r.off, r.Tag)
	}
	if end < 0 {
		end = n
	}
	if err == nil && end != len(doc) {
		err = &CorruptError{Offset: end, Msg: "trailing bytes"}
	}
	if err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// appendDoc mirrors decodeDoc.
func appendDoc(dst, data []byte, off int, asArray bool) ([]byte, int, error) {
	i, end, err := docBounds(data, off)
	if err != nil {
		return dst, 0, err
	}
	open, close := byte('{'), byte('}')
	if asArray {
		open, close = '[', ']'
	}
	dst = append(dst, open)
	for first := true; ; first = false {
		if i >= end {
			return dst, 0, &CorruptError{Offset: i, Msg: "missing terminator"}
		}
		tag := data[i]
		if tag == 0 {
			if i != end-1 {
				return dst, 0, &CorruptError{Offset: i, Msg: "terminator before document end"}
			}
			break
		}
		key, val, err := elementKey(data, i, end)
		if err != nil {
			return dst, 0, err
		}
		if !first {
			dst = append(dst, ',')
		}
		if !asArray {
			dst = append(jsonval.AppendQuoted(dst, inPlace(key)), ':')
		}
		if dst, i, err = appendValue(dst, data, val, tag); err != nil {
			return dst, 0, err
		}
	}
	return append(dst, close), end, nil
}

// appendValue mirrors decodeValue.
func appendValue(dst, data []byte, off int, tag byte) ([]byte, int, error) {
	switch tag {
	case tagString:
		r := Raw{Tag: tag, data: data, off: off}
		s, ok := r.str()
		if !ok {
			return dst, 0, &CorruptError{Offset: off, Msg: "string out of bounds"}
		}
		return jsonval.AppendQuoted(dst, inPlace(s)), off + 4 + len(s) + 1, nil
	case tagDoc:
		return appendDoc(dst, data, off, false)
	case tagArray:
		return appendDoc(dst, data, off, true)
	default:
		// Scalars carry no bytes worth streaming: decode the fixed-size
		// payload and let jsonval format it.
		v, n, err := decodeValue(data, off, tag)
		if err != nil {
			return dst, 0, err
		}
		return jsonval.AppendJSON(dst, v), n, nil
	}
}

// inPlace views b as a string without copying, for callees that only read
// their argument for the duration of the call.
func inPlace(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
