// Package lz implements a byte-oriented LZ77 codec in the spirit of
// PostgreSQL's pglz and WiredTiger's snappy: greedy hash-table matching on
// compression and plain byte-copy decompression with no entropy coding.
// The engine stand-ins (mongosim, pgsim) use it so their per-query
// decompression costs resemble the real systems' — flate-style Huffman
// decoding would overcharge them roughly threefold.
//
// Format: a uvarint with the decompressed length, followed by a sequence of
// tagged elements. The low two bits of each tag byte select the element
// type:
//
//	00  literal run; the upper six bits hold length-1 (0..59), or 60..63
//	    to signal 1..4 extra little-endian length bytes (length-1)
//	01  short copy; length 4..11 in bits 2..4, offset high bits 5..7 plus
//	    one extra offset byte (1..2047)
//	10  long copy; length-1 in the upper six bits plus one extra length
//	    byte is not needed — length 1..64 — and two little-endian offset
//	    bytes (1..65535)
package lz

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

const (
	tagLiteral   = 0x00
	tagCopyShort = 0x01
	tagCopyLong  = 0x02

	minMatch  = 4
	maxOffset = 65535
)

// Compress appends the compressed form of src to dst and returns the
// extended slice. Compress(nil, nil) yields the encoding of an empty input.
// Safe for concurrent use: each call borrows its own match table.
func Compress(dst, src []byte) []byte {
	t := tables.Get().(*matchTable)
	dst = t.compress(dst, src)
	tables.Put(t)
	return dst
}

// matchTable maps a 4-byte hash to base+position+1 of the last occurrence
// of those bytes. Every call moves base past the positions it wrote, so
// what earlier calls left reads as empty: a reused table needs no clearing,
// and compressing a 2 KB row no longer zeroes 64 KB first.
type matchTable struct {
	pos  [1 << 14]uint32
	base uint32
}

var tables = sync.Pool{New: func() any { return new(matchTable) }}

func (t *matchTable) compress(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	if uint64(len(src)) > math.MaxUint32-uint64(t.base) {
		*t = matchTable{} // base would overflow: start from an empty table
	}
	base := t.base
	t.base += uint32(len(src))
	litStart := 0
	i := 0
	for i+minMatch <= len(src) {
		h := hash4(src[i:])
		e := t.pos[h]
		t.pos[h] = base + uint32(i) + 1
		if e > base { // written by this call
			cand := int(e-base) - 1
			if i-cand <= maxOffset && match4(src, cand, i) {
				// Extend the match.
				length := minMatch
				for i+length < len(src) && length < 64 && src[cand+length] == src[i+length] {
					length++
				}
				dst = emitLiterals(dst, src[litStart:i])
				dst = emitCopy(dst, i-cand, length)
				i += length
				litStart = i
				continue
			}
		}
		i++
	}
	return emitLiterals(dst, src[litStart:])
}

func hash4(b []byte) uint32 {
	v := binary.LittleEndian.Uint32(b)
	return (v * 2654435761) >> 18 // top 14 bits
}

func match4(src []byte, a, b int) bool {
	return binary.LittleEndian.Uint32(src[a:]) == binary.LittleEndian.Uint32(src[b:])
}

func emitLiterals(dst, lit []byte) []byte {
	for len(lit) > 0 {
		n := len(lit)
		switch {
		case n <= 60:
			dst = append(dst, byte(n-1)<<2|tagLiteral)
		case n <= 1<<8:
			dst = append(dst, 60<<2|tagLiteral, byte(n-1))
		case n <= 1<<16:
			dst = append(dst, 61<<2|tagLiteral, byte(n-1), byte((n-1)>>8))
		case n <= 1<<24:
			dst = append(dst, 62<<2|tagLiteral, byte(n-1), byte((n-1)>>8), byte((n-1)>>16))
		default:
			chunk := 1 << 24
			dst = append(dst, 62<<2|tagLiteral, byte(chunk-1), byte((chunk-1)>>8), byte((chunk-1)>>16))
			dst = append(dst, lit[:chunk]...)
			lit = lit[chunk:]
			continue
		}
		dst = append(dst, lit...)
		break
	}
	return dst
}

func emitCopy(dst []byte, offset, length int) []byte {
	if length >= minMatch && length <= 11 && offset < 1<<11 {
		dst = append(dst, byte(offset>>8)<<5|byte(length-minMatch)<<2|tagCopyShort, byte(offset))
		return dst
	}
	return append(dst, byte(length-1)<<2|tagCopyLong, byte(offset), byte(offset>>8))
}

// CorruptError reports malformed compressed data.
type CorruptError struct {
	Offset int
	Msg    string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("lz: corrupt data at offset %d: %s", e.Offset, e.Msg)
}

// Decompress appends the decompressed form of src to dst.
func Decompress(dst, src []byte) ([]byte, error) {
	want, n := binary.Uvarint(src)
	if n <= 0 {
		return nil, &CorruptError{Offset: 0, Msg: "missing length header"}
	}
	src = src[n:]
	// A copy op expands at most 64 bytes from 2-3 input bytes and a
	// literal run carries its own bytes, so genuine output is bounded by
	// ~32x the input; a header beyond that is corrupt. This also keeps a
	// forged header from forcing a huge allocation.
	if want > uint64(len(src))*32+64 {
		return nil, &CorruptError{Offset: 0, Msg: "length header exceeds possible expansion"}
	}
	base := len(dst)
	if cap(dst)-base < int(want) {
		grown := make([]byte, base, base+int(want))
		copy(grown, dst)
		dst = grown
	}
	i := 0
	for i < len(src) {
		tag := src[i]
		switch tag & 0x03 {
		case tagLiteral:
			length := int(tag>>2) + 1
			i++
			if length > 60 {
				extra := length - 60 // 1..4 extension bytes
				if i+extra > len(src) {
					return nil, &CorruptError{Offset: i, Msg: "truncated literal length"}
				}
				length = 0
				for b := extra - 1; b >= 0; b-- {
					length = length<<8 | int(src[i+b])
				}
				length++
				i += extra
			}
			if i+length > len(src) {
				return nil, &CorruptError{Offset: i, Msg: "literal run out of bounds"}
			}
			dst = append(dst, src[i:i+length]...)
			i += length
		case tagCopyShort:
			if i+1 >= len(src) {
				return nil, &CorruptError{Offset: i, Msg: "truncated short copy"}
			}
			length := int(tag>>2&0x07) + minMatch
			offset := int(tag>>5)<<8 | int(src[i+1])
			i += 2
			var err error
			dst, err = appendCopy(dst, base, offset, length, i)
			if err != nil {
				return nil, err
			}
		case tagCopyLong:
			if i+2 >= len(src) {
				return nil, &CorruptError{Offset: i, Msg: "truncated long copy"}
			}
			length := int(tag>>2) + 1
			offset := int(src[i+1]) | int(src[i+2])<<8
			i += 3
			var err error
			dst, err = appendCopy(dst, base, offset, length, i)
			if err != nil {
				return nil, err
			}
		default:
			return nil, &CorruptError{Offset: i, Msg: "reserved tag"}
		}
	}
	if len(dst)-base != int(want) {
		return nil, &CorruptError{Offset: i, Msg: fmt.Sprintf("decompressed %d bytes, header says %d", len(dst)-base, want)}
	}
	return dst, nil
}

// appendCopy replays a back-reference; overlapping copies replicate runs,
// as in every LZ77 family codec.
func appendCopy(dst []byte, base, offset, length, pos int) ([]byte, error) {
	if offset <= 0 || offset > len(dst)-base {
		return nil, &CorruptError{Offset: pos, Msg: "copy offset out of range"}
	}
	from := len(dst) - offset
	if offset >= length {
		// Non-overlapping: bulk copy.
		return append(dst, dst[from:from+length]...), nil
	}
	for k := 0; k < length; k++ {
		dst = append(dst, dst[from+k])
	}
	return dst, nil
}
