// Package jsonblite implements a JSONB-style binary document format used by
// the PostgreSQL stand-in engine (internal/engine/pgsim): objects store
// their keys sorted with a fixed-size offset index (enabling binary search,
// like PostgreSQL's JEntry arrays), and strings reject embedded U+0000,
// exactly the restriction that makes real PostgreSQL refuse such documents
// ("unsupported Unicode escape sequence").
package jsonblite

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"

	"github.com/joda-explore/betze/internal/jsonval"
)

// Value tags.
const (
	tagNull   = 0x00
	tagFalse  = 0x01
	tagTrue   = 0x02
	tagInt    = 0x03
	tagFloat  = 0x04
	tagString = 0x05
	tagArray  = 0x06
	tagObject = 0x07
)

// ErrNullByte reports a string containing U+0000, which the format (like
// PostgreSQL's jsonb) cannot store.
var ErrNullByte = fmt.Errorf("jsonblite: unsupported Unicode escape sequence: \\u0000 cannot be converted to text")

// CorruptError reports a structurally invalid document.
type CorruptError struct {
	Offset int
	Msg    string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("jsonblite: corrupt document at offset %d: %s", e.Offset, e.Msg)
}

// Encode appends the binary encoding of v to dst. It fails with ErrNullByte
// when any string contains U+0000.
func Encode(dst []byte, v jsonval.Value) ([]byte, error) {
	switch v.Kind() {
	case jsonval.Null:
		return append(dst, tagNull), nil
	case jsonval.Bool:
		if v.Bool() {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case jsonval.Int:
		dst = append(dst, tagInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.Int())), nil
	case jsonval.Float:
		dst = append(dst, tagFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float())), nil
	case jsonval.String:
		s := v.Str()
		if strings.IndexByte(s, 0) >= 0 {
			return nil, ErrNullByte
		}
		dst = append(dst, tagString)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		return append(dst, s...), nil
	case jsonval.Array:
		elems := v.Array()
		dst = append(dst, tagArray)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(elems)))
		// Fixed-size offset index, then the encoded elements.
		idxStart := len(dst)
		dst = extend(dst, 4*len(elems))
		bodyStart := len(dst)
		var err error
		for i, e := range elems {
			binary.LittleEndian.PutUint32(dst[idxStart+4*i:], uint32(len(dst)-bodyStart))
			dst, err = Encode(dst, e)
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	case jsonval.Object:
		members := v.Members()
		// Members are written in key order, duplicates in document order:
		// a stable sort of their positions, on the stack for all but wide
		// objects.
		var stack [32]int32
		order := stack[:0]
		if len(members) > len(stack) {
			order = make([]int32, 0, len(members))
		}
		for i := range members {
			order = append(order, int32(i))
		}
		slices.SortStableFunc(order, func(a, b int32) int { return strings.Compare(members[a].Key, members[b].Key) })
		dst = append(dst, tagObject)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(members)))
		// Per-member index entry: key offset, key length, value offset.
		idxStart := len(dst)
		dst = extend(dst, 12*len(members))
		keysStart := len(dst)
		for i, m := range order {
			key := members[m].Key
			if strings.IndexByte(key, 0) >= 0 {
				return nil, ErrNullByte
			}
			binary.LittleEndian.PutUint32(dst[idxStart+12*i:], uint32(len(dst)-keysStart))
			binary.LittleEndian.PutUint32(dst[idxStart+12*i+4:], uint32(len(key)))
			dst = append(dst, key...)
		}
		valsStart := len(dst)
		var err error
		for i, m := range order {
			binary.LittleEndian.PutUint32(dst[idxStart+12*i+8:], uint32(len(dst)-valsStart))
			dst, err = Encode(dst, members[m].Value)
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return append(dst, tagNull), nil
	}
}

// extend lengthens b by n bytes for an index that Encode then writes in
// full, without zeroing them first.
func extend(b []byte, n int) []byte {
	return slices.Grow(b, n)[:len(b)+n]
}

// Decode materialises the whole document. The PostgreSQL stand-in builds a
// tree only for a row it transforms; filters and aggregates go through
// LookupSteps, and returned rows through AppendJSON.
func Decode(data []byte) (jsonval.Value, error) {
	v, n, err := decode(data, 0)
	if err != nil {
		return jsonval.Value{}, err
	}
	if n != len(data) {
		return jsonval.Value{}, &CorruptError{Offset: n, Msg: "trailing bytes"}
	}
	return v, nil
}

func decode(data []byte, off int) (jsonval.Value, int, error) {
	if off >= len(data) {
		return jsonval.Value{}, 0, &CorruptError{Offset: off, Msg: "truncated value"}
	}
	switch tag := data[off]; tag {
	case tagNull:
		return jsonval.NullValue(), off + 1, nil
	case tagFalse:
		return jsonval.BoolValue(false), off + 1, nil
	case tagTrue:
		return jsonval.BoolValue(true), off + 1, nil
	case tagInt:
		if off+9 > len(data) {
			return jsonval.Value{}, 0, &CorruptError{Offset: off, Msg: "truncated int"}
		}
		return jsonval.IntValue(int64(binary.LittleEndian.Uint64(data[off+1:]))), off + 9, nil
	case tagFloat:
		if off+9 > len(data) {
			return jsonval.Value{}, 0, &CorruptError{Offset: off, Msg: "truncated float"}
		}
		return jsonval.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(data[off+1:]))), off + 9, nil
	case tagString:
		s, end, err := stringAt(data, off)
		if err != nil {
			return jsonval.Value{}, 0, err
		}
		return jsonval.StringValue(string(s)), end, nil
	case tagArray:
		count, pos, err := index(data, off, 4)
		if err != nil {
			return jsonval.Value{}, 0, err
		}
		elems := make([]jsonval.Value, count)
		for i := 0; i < count; i++ {
			elems[i], pos, err = decode(data, pos)
			if err != nil {
				return jsonval.Value{}, 0, err
			}
		}
		return jsonval.ArrayValue(elems...), pos, nil
	case tagObject:
		count, keysStart, err := index(data, off, 12)
		if err != nil {
			return jsonval.Value{}, 0, err
		}
		members := make([]jsonval.Member, count)
		pos := keysStart
		// Keys first (they precede the values section).
		for i := 0; i < count; i++ {
			var key []byte
			if key, pos, err = objectKey(data, off+5, keysStart, i); err != nil {
				return jsonval.Value{}, 0, err
			}
			members[i].Key = string(key)
		}
		for i := 0; i < count; i++ {
			members[i].Value, pos, err = decode(data, pos)
			if err != nil {
				return jsonval.Value{}, 0, err
			}
		}
		return jsonval.ObjectValue(members...), pos, nil
	default:
		return jsonval.Value{}, 0, &CorruptError{Offset: off, Msg: fmt.Sprintf("unknown tag 0x%02x", tag)}
	}
}

// stringAt returns the payload of the string at off, in place, and the
// offset just past it.
func stringAt(data []byte, off int) (s []byte, end int, err error) {
	if off+5 > len(data) {
		return nil, 0, &CorruptError{Offset: off, Msg: "truncated string header"}
	}
	start := off + 5
	end = start + int(binary.LittleEndian.Uint32(data[off+1:]))
	if end > len(data) {
		return nil, 0, &CorruptError{Offset: off, Msg: "string out of bounds"}
	}
	return data[start:end], end, nil
}

// AppendJSON appends the JSON text of the encoded value to dst, byte for
// byte what jsonval.AppendJSON(dst, v) appends for the v that Decode(data)
// returns, and fails exactly when Decode fails — without building the value
// tree. On error dst is returned unextended.
func AppendJSON(dst, data []byte) ([]byte, error) {
	base := len(dst)
	dst, n, err := appendValue(dst, data, 0)
	if err == nil && n != len(data) {
		err = &CorruptError{Offset: n, Msg: "trailing bytes"}
	}
	if err != nil {
		return dst[:base], err
	}
	return dst, nil
}

// appendValue mirrors decode.
func appendValue(dst, data []byte, off int) ([]byte, int, error) {
	if off >= len(data) {
		return dst, 0, &CorruptError{Offset: off, Msg: "truncated value"}
	}
	switch data[off] {
	case tagString:
		s, end, err := stringAt(data, off)
		if err != nil {
			return dst, 0, err
		}
		return jsonval.AppendQuoted(dst, inPlace(s)), end, nil
	case tagArray:
		count, pos, err := index(data, off, 4)
		if err != nil {
			return dst, 0, err
		}
		dst = append(dst, '[')
		for i := 0; i < count; i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, pos, err = appendValue(dst, data, pos); err != nil {
				return dst, 0, err
			}
		}
		return append(dst, ']'), pos, nil
	case tagObject:
		count, keysStart, err := index(data, off, 12)
		if err != nil {
			return dst, 0, err
		}
		// The values section starts where the last key ends.
		pos := keysStart
		if count > 0 {
			if _, pos, err = objectKey(data, off+5, keysStart, count-1); err != nil {
				return dst, 0, err
			}
		}
		dst = append(dst, '{')
		for i := 0; i < count; i++ {
			key, _, err := objectKey(data, off+5, keysStart, i)
			if err != nil {
				return dst, 0, err
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(jsonval.AppendQuoted(dst, inPlace(key)), ':')
			if dst, pos, err = appendValue(dst, data, pos); err != nil {
				return dst, 0, err
			}
		}
		return append(dst, '}'), pos, nil
	default:
		// Scalars carry no bytes worth streaming: decode the fixed-size
		// payload and let jsonval format it.
		v, n, err := decode(data, off)
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

// index validates the header of the array or object at off, whose index
// entries are entry bytes wide, and returns the element count and the offset
// just past the index.
func index(data []byte, off, entry int) (count, end int, err error) {
	if off+5 > len(data) {
		return 0, 0, &CorruptError{Offset: off, Msg: "truncated container header"}
	}
	count = int(binary.LittleEndian.Uint32(data[off+1:]))
	end = off + 5 + entry*count
	if end > len(data) {
		return 0, 0, &CorruptError{Offset: off, Msg: "container index out of bounds"}
	}
	return count, end, nil
}

// objectKey returns the i-th key of an object, in place, and the offset just
// past it; idx and keysStart are the offsets of the object's index and keys.
func objectKey(data []byte, idx, keysStart, i int) (key []byte, end int, err error) {
	start := keysStart + int(binary.LittleEndian.Uint32(data[idx+12*i:]))
	end = start + int(binary.LittleEndian.Uint32(data[idx+12*i+4:]))
	if end > len(data) {
		return nil, 0, &CorruptError{Offset: idx + 12*i, Msg: "key out of bounds"}
	}
	return data[start:end], end, nil
}

// Raw is an undecoded value inside a document; data[off] is its tag.
type Raw struct {
	data []byte
	off  int
}

// LookupBinary resolves a path via binary search over the sorted key
// indexes and materialises only the value found there.
//
// No production caller (engines pre-split the path and call LookupSteps);
// kept for benchmark/replay.go until a benchmark PR drops the row.
func LookupBinary(data []byte, path jsonval.Path) (jsonval.Value, bool, error) {
	r, ok, err := LookupSteps(data, path.Steps())
	if err != nil || !ok {
		return jsonval.Value{}, false, err
	}
	v, err := r.Value()
	return v, err == nil, err
}

// LookupSteps is pgsim's evaluation path: it resolves a pre-split step slice
// (from Path.Steps) by binary search without materialising anything. Index
// keys are compared in place, so the walk allocates nothing. Among duplicate
// keys the first wins, as in jsonval.Value.Field.
func LookupSteps(data []byte, steps []string) (Raw, bool, error) {
	off := 0
	for _, seg := range steps {
		if off >= len(data) {
			return Raw{}, false, &CorruptError{Offset: off, Msg: "truncated value"}
		}
		if data[off] != tagObject {
			return Raw{}, false, nil
		}
		count, keysStart, err := index(data, off, 12)
		if err != nil {
			return Raw{}, false, err
		}
		idx := off + 5
		// Lower bound: the first key >= seg.
		lo, hi := 0, count
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			k, _, err := objectKey(data, idx, keysStart, mid)
			if err != nil {
				return Raw{}, false, err
			}
			if string(k) < seg {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == count {
			return Raw{}, false, nil
		}
		if k, _, err := objectKey(data, idx, keysStart, lo); err != nil || string(k) != seg {
			return Raw{}, false, err
		}
		// The values section starts where the last key ends.
		_, valsStart, err := objectKey(data, idx, keysStart, count-1)
		if err != nil {
			return Raw{}, false, err
		}
		off = valsStart + int(binary.LittleEndian.Uint32(data[idx+12*lo+8:]))
	}
	if off >= len(data) {
		return Raw{}, false, &CorruptError{Offset: off, Msg: "truncated value"}
	}
	return Raw{data: data, off: off}, true, nil
}

// Kind maps the raw tag to the JSON kind.
func (r Raw) Kind() jsonval.Kind {
	switch r.data[r.off] {
	case tagFalse, tagTrue:
		return jsonval.Bool
	case tagInt:
		return jsonval.Int
	case tagFloat:
		return jsonval.Float
	case tagString:
		return jsonval.String
	case tagArray:
		return jsonval.Array
	case tagObject:
		return jsonval.Object
	default:
		return jsonval.Null
	}
}

// Number returns the numeric payload of an int or float value.
func (r Raw) Number() (float64, bool) {
	if r.off+9 > len(r.data) {
		return 0, false
	}
	switch bits := binary.LittleEndian.Uint64(r.data[r.off+1:]); r.data[r.off] {
	case tagInt:
		return float64(int64(bits)), true
	case tagFloat:
		return math.Float64frombits(bits), true
	default:
		return 0, false
	}
}

// Bool returns the boolean payload.
func (r Raw) Bool() (bool, bool) {
	tag := r.data[r.off]
	return tag == tagTrue, tag == tagTrue || tag == tagFalse
}

// str returns the string payload in place.
func (r Raw) str() ([]byte, bool) {
	if r.data[r.off] != tagString {
		return nil, false
	}
	s, _, err := stringAt(r.data, r.off)
	return s, err == nil
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

// Len returns the element count of an array or object value from its header.
func (r Raw) Len() (int, bool) {
	entry := 4
	switch r.data[r.off] {
	case tagArray:
	case tagObject:
		entry = 12
	default:
		return 0, false
	}
	count, _, err := index(r.data, r.off, entry)
	return count, err == nil
}

// Value materialises the raw value.
func (r Raw) Value() (jsonval.Value, error) {
	v, _, err := decode(r.data, r.off)
	return v, err
}
