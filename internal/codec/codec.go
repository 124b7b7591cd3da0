// Package codec defines the pluggable serialization contract run storage is
// built on: a Codec[T] turns elements into bytes when runs spill to disk and
// back when the merge phase reads them.
//
// Two families are provided:
//
//   - fixed-width codecs (FixedSize > 0): every element encodes to the same
//     number of bytes, so files are seekable in element units and pages hold
//     a whole number of elements. Record16 is the library's historical
//     16-byte record layout. The built-in ones are also Bulk: they move a
//     page of elements per call, which is how the run writers and readers
//     use them.
//
//   - variable-width codecs (FixedSize == 0): each element is stored as a
//     uvarint length prefix followed by its payload. Bytes and String use it
//     for arbitrary-length elements; elements may span page and even file
//     boundaries, which the runio readers and writers handle.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/record"
)

// ErrShort reports that a buffer ends mid-element; the caller should supply
// more bytes and retry.
var ErrShort = errors.New("codec: short buffer")

// MaxElement bounds a single variable-width element (64 MiB). A length
// prefix above it is treated as corruption rather than an allocation
// request.
const MaxElement = 64 << 20

// Codec encodes and decodes elements of type T.
type Codec[T any] interface {
	// Append encodes v onto buf and returns the extended slice.
	Append(buf []byte, v T) []byte
	// Decode reads one element from the front of buf, returning it and the
	// number of bytes consumed. It returns ErrShort when buf holds only a
	// prefix of an element.
	Decode(buf []byte) (v T, n int, err error)
	// FixedSize returns the encoded size of every element for fixed-width
	// codecs and 0 for variable-width ones.
	FixedSize() int
}

// Bulk is the optional block-granular face of a fixed-width codec, found by
// type assertion: the same bytes as repeated Append and Decode, a slice of
// elements per call instead of one interface call, one temporary and one
// length check per element.
type Bulk[T any] interface {
	// AppendAll encodes every element of vs onto buf, in order, and returns
	// the extended slice.
	AppendAll(buf []byte, vs []T) []byte
	// DecodeAll decodes whole elements from the front of buf into dst until
	// either runs out and returns how many it decoded. A partial element at
	// the end of buf is left alone.
	DecodeAll(dst []T, buf []byte) int
}

// grow extends buf by n bytes and returns the extended slice with the
// offset the new bytes start at.
func grow(buf []byte, n int) ([]byte, int) {
	at := len(buf)
	if cap(buf)-at < n {
		buf = append(buf, make([]byte, n)...)
	}
	return buf[:at+n], at
}

// appendWords is AppendAll for the 8-byte word codecs.
func appendWords[T any](buf []byte, vs []T, word func(T) uint64) []byte {
	buf, at := grow(buf, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[at+8*i:], word(v))
	}
	return buf
}

// decodeWords is DecodeAll for the 8-byte word codecs.
func decodeWords[T any](dst []T, buf []byte, elem func(uint64) T) int {
	n := min(len(dst), len(buf)/8)
	for i := range dst[:n] {
		dst[i] = elem(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return n
}

// Record16 is the library's historical fixed 16-byte little-endian layout
// for record.Record: 8-byte key then 8-byte aux.
type Record16 struct{}

// Append implements Codec.
func (Record16) Append(buf []byte, r record.Record) []byte {
	var tmp [record.Size]byte
	record.Encode(tmp[:], r)
	return append(buf, tmp[:]...)
}

// Decode implements Codec.
func (Record16) Decode(buf []byte) (record.Record, int, error) {
	if len(buf) < record.Size {
		return record.Record{}, 0, ErrShort
	}
	return record.Decode(buf), record.Size, nil
}

// FixedSize implements Codec.
func (Record16) FixedSize() int { return record.Size }

// AppendAll implements Bulk.
func (Record16) AppendAll(buf []byte, rs []record.Record) []byte {
	buf, at := grow(buf, record.Size*len(rs))
	for i, r := range rs {
		record.Encode(buf[at+record.Size*i:], r)
	}
	return buf
}

// DecodeAll implements Bulk.
func (Record16) DecodeAll(dst []record.Record, buf []byte) int {
	n := min(len(dst), len(buf)/record.Size)
	for i := range dst[:n] {
		dst[i] = record.Decode(buf[record.Size*i:])
	}
	return n
}

// Int64 stores int64 elements as fixed 8-byte little-endian words.
type Int64 struct{}

// Append implements Codec.
func (Int64) Append(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

// Decode implements Codec.
func (Int64) Decode(buf []byte) (int64, int, error) {
	if len(buf) < 8 {
		return 0, 0, ErrShort
	}
	return int64(binary.LittleEndian.Uint64(buf)), 8, nil
}

// FixedSize implements Codec.
func (Int64) FixedSize() int { return 8 }

// AppendAll implements Bulk.
func (Int64) AppendAll(buf []byte, vs []int64) []byte {
	return appendWords(buf, vs, func(v int64) uint64 { return uint64(v) })
}

// DecodeAll implements Bulk.
func (Int64) DecodeAll(dst []int64, buf []byte) int {
	return decodeWords(dst, buf, func(w uint64) int64 { return int64(w) })
}

// Uint64 stores uint64 elements as fixed 8-byte little-endian words.
type Uint64 struct{}

// Append implements Codec.
func (Uint64) Append(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

// Decode implements Codec.
func (Uint64) Decode(buf []byte) (uint64, int, error) {
	if len(buf) < 8 {
		return 0, 0, ErrShort
	}
	return binary.LittleEndian.Uint64(buf), 8, nil
}

// FixedSize implements Codec.
func (Uint64) FixedSize() int { return 8 }

// AppendAll implements Bulk.
func (Uint64) AppendAll(buf []byte, vs []uint64) []byte {
	return appendWords(buf, vs, func(v uint64) uint64 { return v })
}

// DecodeAll implements Bulk.
func (Uint64) DecodeAll(dst []uint64, buf []byte) int {
	return decodeWords(dst, buf, func(w uint64) uint64 { return w })
}

// Float64 stores float64 elements as fixed 8-byte IEEE 754 words.
type Float64 struct{}

// Append implements Codec.
func (Float64) Append(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// Decode implements Codec.
func (Float64) Decode(buf []byte) (float64, int, error) {
	if len(buf) < 8 {
		return 0, 0, ErrShort
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), 8, nil
}

// FixedSize implements Codec.
func (Float64) FixedSize() int { return 8 }

// AppendAll implements Bulk.
func (Float64) AppendAll(buf []byte, vs []float64) []byte {
	return appendWords(buf, vs, math.Float64bits)
}

// DecodeAll implements Bulk.
func (Float64) DecodeAll(dst []float64, buf []byte) int {
	return decodeWords(dst, buf, math.Float64frombits)
}

// decodeVar reads a uvarint length prefix and returns the payload view.
func decodeVar(buf []byte) (payload []byte, n int, err error) {
	l, p := binary.Uvarint(buf)
	if p == 0 {
		return nil, 0, ErrShort
	}
	if p < 0 || l > MaxElement {
		return nil, 0, fmt.Errorf("codec: corrupt length prefix %d", l)
	}
	if len(buf) < p+int(l) {
		return nil, 0, ErrShort
	}
	return buf[p : p+int(l)], p + int(l), nil
}

// Bytes stores []byte elements with a uvarint length prefix.
type Bytes struct{}

// Append implements Codec.
func (Bytes) Append(buf []byte, v []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}

// Decode implements Codec. The returned slice is a copy, so it stays valid
// after the read buffer is reused.
func (Bytes) Decode(buf []byte) ([]byte, int, error) {
	payload, n, err := decodeVar(buf)
	if err != nil {
		return nil, 0, err
	}
	out := make([]byte, len(payload))
	copy(out, payload)
	return out, n, nil
}

// FixedSize implements Codec.
func (Bytes) FixedSize() int { return 0 }

// String stores string elements with a uvarint length prefix.
type String struct{}

// Append implements Codec.
func (String) Append(buf []byte, v string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v)))
	return append(buf, v...)
}

// Decode implements Codec.
func (String) Decode(buf []byte) (string, int, error) {
	payload, n, err := decodeVar(buf)
	if err != nil {
		return "", 0, err
	}
	return string(payload), n, nil
}

// FixedSize implements Codec.
func (String) FixedSize() int { return 0 }
