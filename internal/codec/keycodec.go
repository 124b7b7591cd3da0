// Normalized keys: memcmp-ordered byte encodings of element keys.
//
// A KeyCodec[T] complements a Codec[T]: instead of round-tripping elements
// through storage, it projects each element onto a byte string whose
// lexicographic (bytes.Compare) order equals the comparator's order. That
// single property collapses the sorter's hot comparisons — heap sifts, run
// sorting, loser-tree matches — from indirect comparator calls into integer
// compares over cached key prefixes, with the comparator only on ties.
//
// The encodings (DESIGN.md §12 has the full tables):
//
//   - int64: the sign bit is flipped and the result stored big-endian, so
//     negative values order below non-negative ones byte-wise.
//   - uint64: stored big-endian unchanged.
//   - float64: IEEE 754 totalOrder with -0.0 folded into +0.0. Negative
//     floats (sign bit set) have all bits complemented; non-negative floats
//     have only the sign bit flipped. The resulting byte order is -NaN <
//     -Inf < … < -1 < 0 < 1 < … < +Inf < +NaN, and -0.0 and +0.0 share the
//     key of 0, so the key ties exactly where `<` does. NaN is out of scope:
//     `<` does not order it strict-weakly, so inputs containing NaNs fail the
//     sampled validation and the encoding gives them only a fixed place.
//   - string / []byte: the raw bytes (lexicographic order is the byte
//     order already).
//   - composite keys: per-field encodings concatenated. Variable-width
//     fields in non-final positions are escaped (0x00 becomes 0x00 0xFF)
//     and terminated with 0x00 0x01, so a shorter field sorts before every
//     extension of it and no field's bytes bleed into the next field's.
package codec

import (
	"bytes"
	"encoding/binary"
	"math"

	"repro/internal/record"
)

// KeyCodec produces memcmp-ordered normalized key bytes for elements of
// type T. The contract: for every pair of elements a, b and the comparator
// less the codec is registered against,
//
//	bytes.Compare(AppendKey(nil, a), AppendKey(nil, b)) < 0  ⟹  less(a, b)
//
// and less never orders a pair against its key bytes. Equal key bytes imply
// a tie under less only for a total key (TotalKey); for any other, every
// keyed comparison — heap sift, batch sort, merge match —
// asks less on a key tie. Any keyed comparison is then pointwise equal to
// the comparator, which is what guarantees byte-identical sorted output
// between the keyed and comparator paths.
type KeyCodec[T any] interface {
	// AppendKey appends v's normalized key bytes onto buf and returns the
	// extended slice.
	AppendKey(buf []byte, v T) []byte
	// FixedKeySize returns the constant key length in bytes for fixed-width
	// keys and 0 for variable-width ones. A fixed size of 1..8 means the
	// whole key fits the cached uint64 prefix: prefix equality is then key
	// equality, and the hot paths of a total key never fall back to the
	// comparator.
	FixedKeySize() int
	// TotalKey reports whether the key bytes determine the element entirely
	// (key equality implies the elements are interchangeable byte-for-byte
	// in storage). Order-insensitive rearrangement of ties — e.g. a batch
	// sort that leaves its key ties unordered, or merging without the
	// comparator — is only output-identical for total keys.
	TotalKey() bool
}

// AppendKeyInt64 appends the memcmp-ordered encoding of an int64: sign bit
// flipped, big-endian.
func AppendKeyInt64(buf []byte, v int64) []byte {
	return binary.BigEndian.AppendUint64(buf, uint64(v)^(1<<63))
}

// AppendKeyUint64 appends the memcmp-ordered encoding of a uint64:
// big-endian.
func AppendKeyUint64(buf []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(buf, v)
}

// AppendKeyFloat64 appends the memcmp-ordered encoding of a float64: the
// IEEE 754 totalOrder transform (negative values fully complemented,
// non-negative values sign-flipped), big-endian, with -0.0 encoded as +0.0,
// since `<` ties them. NaNs order at the extremes by their sign bit; they
// are not ordered by `<` and stay out of the contract.
func AppendKeyFloat64(buf []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(buf, float64Key(v))
}

// float64Key is the totalOrder transform of v, -0.0 folded into +0.0.
func float64Key(v float64) uint64 {
	if v == 0 {
		return 1 << 63
	}
	b := math.Float64bits(v)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// AppendKeyBytesEscaped appends a variable-width byte-string field in the
// escaped composite encoding: each 0x00 payload byte becomes 0x00 0xFF and
// the field ends with the terminator 0x00 0x01. Within the encoding a field
// that is a prefix of another sorts first, and no payload can collide with
// a terminator, so concatenated fields compare field-by-field.
func AppendKeyBytesEscaped(buf []byte, v []byte) []byte {
	for _, c := range v {
		if c == 0x00 {
			buf = append(buf, 0x00, 0xFF)
		} else {
			buf = append(buf, c)
		}
	}
	return append(buf, 0x00, 0x01)
}

// AppendKeyStringEscaped is AppendKeyBytesEscaped for strings.
func AppendKeyStringEscaped(buf []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		if v[i] == 0x00 {
			buf = append(buf, 0x00, 0xFF)
		} else {
			buf = append(buf, v[i])
		}
	}
	return append(buf, 0x00, 0x01)
}

// KeyInt64 is the KeyCodec for int64 elements under the natural order.
type KeyInt64 struct{}

// AppendKey implements KeyCodec.
func (KeyInt64) AppendKey(buf []byte, v int64) []byte { return AppendKeyInt64(buf, v) }

// FixedKeySize implements KeyCodec.
func (KeyInt64) FixedKeySize() int { return 8 }

// TotalKey implements KeyCodec: the key is the element.
func (KeyInt64) TotalKey() bool { return true }

// KeyUint64 is the KeyCodec for uint64 elements under the natural order.
type KeyUint64 struct{}

// AppendKey implements KeyCodec.
func (KeyUint64) AppendKey(buf []byte, v uint64) []byte { return AppendKeyUint64(buf, v) }

// FixedKeySize implements KeyCodec.
func (KeyUint64) FixedKeySize() int { return 8 }

// TotalKey implements KeyCodec: the key is the element.
func (KeyUint64) TotalKey() bool { return true }

// KeyFloat64 is the KeyCodec for float64 elements under the `<` order (see
// AppendKeyFloat64; NaN is out of scope).
type KeyFloat64 struct{}

// AppendKey implements KeyCodec.
func (KeyFloat64) AppendKey(buf []byte, v float64) []byte { return AppendKeyFloat64(buf, v) }

// FixedKeySize implements KeyCodec.
func (KeyFloat64) FixedKeySize() int { return 8 }

// TotalKey implements KeyCodec. -0.0 and +0.0 share a key, as they tie under
// `<`, but store different bytes, so rearranging ties is not
// output-identical: the key is not total.
func (KeyFloat64) TotalKey() bool { return false }

// KeyString is the KeyCodec for string elements under the natural order:
// the key bytes are the string bytes.
type KeyString struct{}

// AppendKey implements KeyCodec.
func (KeyString) AppendKey(buf []byte, v string) []byte { return append(buf, v...) }

// FixedKeySize implements KeyCodec.
func (KeyString) FixedKeySize() int { return 0 }

// TotalKey implements KeyCodec: the key is the element.
func (KeyString) TotalKey() bool { return true }

// KeyBytes is the KeyCodec for []byte elements under bytes.Compare order.
type KeyBytes struct{}

// AppendKey implements KeyCodec.
func (KeyBytes) AppendKey(buf []byte, v []byte) []byte { return append(buf, v...) }

// FixedKeySize implements KeyCodec.
func (KeyBytes) FixedKeySize() int { return 0 }

// TotalKey implements KeyCodec: the key is the element.
func (KeyBytes) TotalKey() bool { return true }

// KeyRecord16 is the KeyCodec for record.Record ordered by record.Less
// (ascending Key; Aux is not part of the order).
type KeyRecord16 struct{}

// AppendKey implements KeyCodec.
func (KeyRecord16) AppendKey(buf []byte, r record.Record) []byte {
	return AppendKeyInt64(buf, r.Key)
}

// FixedKeySize implements KeyCodec.
func (KeyRecord16) FixedKeySize() int { return 8 }

// TotalKey implements KeyCodec: Aux is carried but not encoded in the key,
// so equal keys do not imply interchangeable elements.
func (KeyRecord16) TotalKey() bool { return false }

// Composite is a KeyCodec assembled from per-field appenders, for
// multi-field keys. Fields append in significance order; variable-width
// fields in non-final positions must use the escaped encodings
// (AppendKeyBytesEscaped / AppendKeyStringEscaped) so field boundaries
// compare correctly.
type Composite[T any] struct {
	// Fields append each key field's normalized bytes, most significant
	// first.
	Fields []func(buf []byte, v T) []byte
	// Fixed is the total key width when every field is fixed-width, else 0.
	Fixed int
	// Total marks the key as determining the element entirely.
	Total bool
}

// AppendKey implements KeyCodec.
func (c Composite[T]) AppendKey(buf []byte, v T) []byte {
	for _, f := range c.Fields {
		buf = f(buf, v)
	}
	return buf
}

// FixedKeySize implements KeyCodec.
func (c Composite[T]) FixedKeySize() int { return c.Fixed }

// TotalKey implements KeyCodec.
func (c Composite[T]) TotalKey() bool { return c.Total }

// Prefix packs the first 8 key bytes big-endian into a uint64, zero-padding
// short keys. Prefix order is a coarsening of key order: prefix(a) <
// prefix(b) implies key(a) < key(b), and prefixes tie whenever the keys'
// first 8 bytes do — so a prefix compare never contradicts the comparator
// and ties fall back to it (or, for complete ≤8-byte keys, are true ties).
func Prefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var p uint64
	for _, c := range key {
		p = p<<8 | uint64(c)
	}
	return p << (8 * (8 - uint(len(key))))
}

// PrefixIsKey reports whether Prefix of kc's key bytes is the whole key: a
// fixed-width key of at most 8 bytes, under which equal prefixes are equal
// keys and nothing has to look at the key bytes themselves. Everything that
// chooses between "the cached word decides" and "the word, then the bytes or
// the comparator" asks here: the merge tree and the batch sorter's tie rule
// (KeySorter).
func PrefixIsKey[T any](kc KeyCodec[T]) bool {
	fs := kc.FixedKeySize()
	return fs >= 1 && fs <= 8
}

// Prefixer is an optional KeyCodec extension: KeyPrefix returns
// Prefix(AppendKey(nil, v)) without materializing the key bytes. The
// built-in fixed-width codecs implement it — their key is one integer
// transform away — which keeps the per-element prefix cost of the hot
// paths at a couple of ALU instructions instead of a buffer round-trip.
type Prefixer[T any] interface {
	KeyPrefix(v T) uint64
}

// KeyPrefix implements Prefixer.
func (KeyInt64) KeyPrefix(v int64) uint64 { return uint64(v) ^ (1 << 63) }

// KeyPrefix implements Prefixer.
func (KeyUint64) KeyPrefix(v uint64) uint64 { return v }

// KeyPrefix implements Prefixer.
func (KeyFloat64) KeyPrefix(v float64) uint64 { return float64Key(v) }

// KeyPrefix implements Prefixer.
func (KeyRecord16) KeyPrefix(r record.Record) uint64 { return uint64(r.Key) ^ (1 << 63) }

// KeyPrefix implements Prefixer: a string's key bytes are the string.
func (KeyString) KeyPrefix(v string) uint64 {
	if len(v) >= 8 {
		return uint64(v[0])<<56 | uint64(v[1])<<48 | uint64(v[2])<<40 | uint64(v[3])<<32 |
			uint64(v[4])<<24 | uint64(v[5])<<16 | uint64(v[6])<<8 | uint64(v[7])
	}
	var p uint64
	for i := 0; i < len(v); i++ {
		p = p<<8 | uint64(v[i])
	}
	return p << (8 * (8 - uint(len(v))))
}

// KeyPrefix implements Prefixer: a byte slice's key bytes are the slice.
func (KeyBytes) KeyPrefix(v []byte) uint64 { return Prefix(v) }

// PrefixFunc returns a function computing Prefix over kc's key bytes:
// the codec's direct KeyPrefix when it implements Prefixer, otherwise a
// closure with its own scratch buffer — allocation-free after warm-up and
// safe as long as each goroutine uses its own closure.
func PrefixFunc[T any](kc KeyCodec[T]) func(T) uint64 {
	if p, ok := kc.(Prefixer[T]); ok {
		return p.KeyPrefix
	}
	var buf []byte
	return func(v T) uint64 {
		buf = kc.AppendKey(buf[:0], v)
		return Prefix(buf)
	}
}

// BulkPrefixer is the optional batch face of a Prefixer, found by type
// assertion like Bulk: KeyPrefixAll stores KeyPrefix(src[i]) in dst[i] for
// every element of src — the same words as repeated KeyPrefix, one call per
// batch. dst is at least as long as src. The merge computes a leaf batch's
// keys through it when the leaf refills.
type BulkPrefixer[T any] interface {
	KeyPrefixAll(dst []uint64, src []T)
}

// KeyPrefixAll implements BulkPrefixer.
func (k KeyInt64) KeyPrefixAll(dst []uint64, src []int64) {
	for i, v := range src {
		dst[i] = k.KeyPrefix(v)
	}
}

// KeyPrefixAll implements BulkPrefixer.
func (KeyUint64) KeyPrefixAll(dst []uint64, src []uint64) { copy(dst, src) }

// KeyPrefixAll implements BulkPrefixer.
func (k KeyFloat64) KeyPrefixAll(dst []uint64, src []float64) {
	for i, v := range src {
		dst[i] = k.KeyPrefix(v)
	}
}

// KeyPrefixAll implements BulkPrefixer.
func (k KeyRecord16) KeyPrefixAll(dst []uint64, src []record.Record) {
	for i, r := range src {
		dst[i] = k.KeyPrefix(r)
	}
}

// PrefixAllFunc returns a function storing Prefix of each element's key
// bytes: the codec's KeyPrefixAll when it implements BulkPrefixer, otherwise
// a loop over PrefixFunc — with that function's one-closure-per-goroutine
// rule.
func PrefixAllFunc[T any](kc KeyCodec[T]) func(dst []uint64, src []T) {
	if p, ok := kc.(BulkPrefixer[T]); ok {
		return p.KeyPrefixAll
	}
	pfx := PrefixFunc(kc)
	return func(dst []uint64, src []T) {
		for i, v := range src {
			dst[i] = pfx(v)
		}
	}
}

// KeyOrderConsistent checks kc's contract against less over every ordered
// pair of the sample: bytes.Compare(K(a), K(b)) < 0 must hold exactly when
// less(a, b). The check is a safety net, not a proof — it catches reversed
// and structurally wrong codecs on real data, while the contract itself
// remains the caller's obligation.
func KeyOrderConsistent[T any](kc KeyCodec[T], less func(a, b T) bool, sample []T) bool {
	// Every key goes into one buffer; ends[i] is where key i stops.
	buf := make([]byte, 0, 16*len(sample))
	ends := make([]int, len(sample)+1)
	for i, v := range sample {
		buf = kc.AppendKey(buf, v)
		ends[i+1] = len(buf)
	}
	key := func(i int) []byte { return buf[ends[i]:ends[i+1]] }
	for i := range sample {
		for j := i + 1; j < len(sample); j++ {
			c := bytes.Compare(key(i), key(j))
			if (c < 0) != less(sample[i], sample[j]) || (c > 0) != less(sample[j], sample[i]) {
				return false
			}
		}
	}
	return true
}
