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
	"sort"
	"strings"

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
		dst = append(dst, make([]byte, 4*len(elems))...)
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
		members := append([]jsonval.Member(nil), v.Members()...)
		sort.SliceStable(members, func(i, j int) bool { return members[i].Key < members[j].Key })
		dst = append(dst, tagObject)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(members)))
		// Per-member index entry: key offset, key length, value offset.
		idxStart := len(dst)
		dst = append(dst, make([]byte, 12*len(members))...)
		keysStart := len(dst)
		for i, m := range members {
			if strings.IndexByte(m.Key, 0) >= 0 {
				return nil, ErrNullByte
			}
			binary.LittleEndian.PutUint32(dst[idxStart+12*i:], uint32(len(dst)-keysStart))
			binary.LittleEndian.PutUint32(dst[idxStart+12*i+4:], uint32(len(m.Key)))
			dst = append(dst, m.Key...)
		}
		valsStart := len(dst)
		var err error
		for i, m := range members {
			binary.LittleEndian.PutUint32(dst[idxStart+12*i+8:], uint32(len(dst)-valsStart))
			dst, err = Encode(dst, m.Value)
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	default:
		return append(dst, tagNull), nil
	}
}

// Decode materialises the whole document — what the PostgreSQL stand-in pays
// per returned or aggregated row, rebuilding the value tree as returning a
// detoasted JSONB does. Filters go through LookupSteps instead.
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
		if off+5 > len(data) {
			return jsonval.Value{}, 0, &CorruptError{Offset: off, Msg: "truncated string header"}
		}
		n := int(binary.LittleEndian.Uint32(data[off+1:]))
		start := off + 5
		if start+n > len(data) {
			return jsonval.Value{}, 0, &CorruptError{Offset: off, Msg: "string out of bounds"}
		}
		return jsonval.StringValue(string(data[start : start+n])), start + n, nil
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
	if r.data[r.off] != tagString || r.off+5 > len(r.data) {
		return nil, false
	}
	start := r.off + 5
	end := start + int(binary.LittleEndian.Uint32(r.data[r.off+1:]))
	if end > len(r.data) {
		return nil, false
	}
	return r.data[start:end], true
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
