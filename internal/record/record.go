// Package record defines the unit of data sorted by this library: a
// fixed-size record holding a 64-bit signed sort key and a 64-bit auxiliary
// payload (typically a row identifier), together with its binary codec.
//
// The thesis sorts 4-byte integer records; this reproduction widens the key
// to int64 and adds an aux word so tests can verify that sorting is an exact
// permutation of the input. All memory budgets in the library are expressed
// in records, as in the paper, so the widened record does not change any
// reported ratio.
package record

import (
	"encoding/binary"
	"fmt"
)

// Size is the encoded size of a Record in bytes.
const Size = 16

// Record is a fixed-size sortable record. Records are ordered by Key; Aux is
// carried along unchanged (it is not a tie-breaker, matching the paper's
// unstable heap-based algorithms).
type Record struct {
	// Key is the sort key.
	Key int64
	// Aux is the payload: carried along, never compared.
	Aux uint64
}

// Less reports whether r orders strictly before other.
func (r Record) Less(other Record) bool { return r.Key < other.Key }

// Less reports whether a orders strictly before b; it is the comparator the
// generic layers are instantiated with for Record streams.
func Less(a, b Record) bool { return a.Key < b.Key }

// Key projects a record onto the real line. The numeric heuristics of 2WRS
// (Mean division point, victim-gap split, MinDistance output) consume this
// projection when sorting records; comparator-only element types fall back
// to order-based heuristics.
func Key(r Record) float64 { return float64(r.Key) }

// String implements fmt.Stringer for debugging output.
func (r Record) String() string { return fmt.Sprintf("{%d/%d}", r.Key, r.Aux) }

// Compare returns -1, 0 or +1 comparing r to other by key.
func Compare(a, b Record) int {
	switch {
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return 1
	default:
		return 0
	}
}

// Encode writes the 16-byte little-endian encoding of r into buf.
// buf must have room for at least Size bytes.
func Encode(buf []byte, r Record) {
	binary.LittleEndian.PutUint64(buf[0:8], uint64(r.Key))
	binary.LittleEndian.PutUint64(buf[8:16], r.Aux)
}

// Decode reads a Record from the first Size bytes of buf.
func Decode(buf []byte) Record {
	return Record{
		Key: int64(binary.LittleEndian.Uint64(buf[0:8])),
		Aux: binary.LittleEndian.Uint64(buf[8:16]),
	}
}

// IsSorted reports whether recs is sorted in non-decreasing key order.
func IsSorted(recs []Record) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].Key < recs[i-1].Key {
			return false
		}
	}
	return true
}

// IsReverseSorted reports whether recs is sorted in non-increasing key order.
func IsReverseSorted(recs []Record) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].Key > recs[i-1].Key {
			return false
		}
	}
	return true
}

// FromKeys builds records with sequential Aux values from a list of keys,
// a test and example convenience.
func FromKeys(keys ...int64) []Record {
	recs := make([]Record, len(keys))
	for i, k := range keys {
		recs[i] = Record{Key: k, Aux: uint64(i)}
	}
	return recs
}

// Multiset is a key/aux occurrence count used to verify that an output is an
// exact permutation of an input.
type Multiset map[Record]int

// NewMultiset counts the records in recs.
func NewMultiset(recs []Record) Multiset {
	m := make(Multiset, len(recs))
	for _, r := range recs {
		m[r]++
	}
	return m
}

// Equal reports whether m and other contain exactly the same records with
// the same multiplicities.
func (m Multiset) Equal(other Multiset) bool {
	if len(m) != len(other) {
		return false
	}
	for r, n := range m {
		if other[r] != n {
			return false
		}
	}
	return true
}
