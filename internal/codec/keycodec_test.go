package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/record"
)

// checkOrder asserts that kc's key bytes order vals exactly as less does,
// over every ordered pair in both directions — the KeyCodec contract on a
// concrete sample.
func checkOrder[T any](t *testing.T, kc KeyCodec[T], less func(a, b T) bool, vals []T) {
	t.Helper()
	keys := make([][]byte, len(vals))
	for i, v := range vals {
		keys[i] = kc.AppendKey(nil, v)
		if fs := kc.FixedKeySize(); fs > 0 && len(keys[i]) != fs {
			t.Fatalf("value %v: key length %d != FixedKeySize %d", vals[i], len(keys[i]), fs)
		}
	}
	for i := range vals {
		for j := range vals {
			c := bytes.Compare(keys[i], keys[j])
			if (c < 0) != less(vals[i], vals[j]) {
				t.Fatalf("pair (%v, %v): bytes.Compare=%d but less=%v",
					vals[i], vals[j], c, less(vals[i], vals[j]))
			}
		}
	}
}

func TestKeyInt64Order(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -1 << 32, -256, -2, -1, 0,
		1, 2, 255, 256, 1 << 32, math.MaxInt64 - 1, math.MaxInt64}
	checkOrder[int64](t, KeyInt64{}, func(a, b int64) bool { return a < b }, vals)
}

func TestKeyUint64Order(t *testing.T) {
	vals := []uint64{0, 1, 2, 255, 256, 1 << 31, 1 << 32, 1 << 63,
		math.MaxUint64 - 1, math.MaxUint64}
	checkOrder[uint64](t, KeyUint64{}, func(a, b uint64) bool { return a < b }, vals)
}

// TestKeyFloat64Order pins the documented byte ordering on the edge cases:
// -NaN < -Inf < negatives < ±0.0 < positives < +Inf < +NaN, the two zeros
// sharing one key. The comparator here is totalOrder with the zeros folded
// (`<` refined on NaN only), so the strict-order side of the contract is
// exercised on every pair, including the ones `<` alone cannot separate.
func TestKeyFloat64Order(t *testing.T) {
	negNaN := math.Float64frombits(1<<63 | uint64(math.Float64bits(math.NaN())))
	vals := []float64{negNaN, math.Inf(-1), -math.MaxFloat64, -1.5, -1,
		-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 1, 1.5, math.MaxFloat64, math.Inf(1), math.NaN()}
	rank := func(v float64) uint64 {
		if v == 0 {
			v = 0
		}
		b := math.Float64bits(v)
		if b&(1<<63) != 0 {
			return ^b
		}
		return b | 1<<63
	}
	checkOrder[float64](t, KeyFloat64{}, func(a, b float64) bool { return rank(a) < rank(b) }, vals)

	// And the user-facing guarantee: on every pair strictly ordered by `<`,
	// the encoding agrees with `<` itself.
	for _, a := range vals {
		for _, b := range vals {
			if a < b {
				ka := AppendKeyFloat64(nil, a)
				kb := AppendKeyFloat64(nil, b)
				if bytes.Compare(ka, kb) >= 0 {
					t.Fatalf("%v < %v but key order disagrees", a, b)
				}
			}
		}
	}
	// -0.0 and +0.0 tie under < and share a key, but store different bytes:
	// the codec must declare itself non-total or tie rearrangement would
	// corrupt output.
	negZero := math.Copysign(0, -1)
	if !bytes.Equal(AppendKeyFloat64(nil, negZero), AppendKeyFloat64(nil, 0)) ||
		(KeyFloat64{}).KeyPrefix(negZero) != (KeyFloat64{}).KeyPrefix(0) {
		t.Fatal("-0.0 and +0.0 tie under < but key differently")
	}
	if (KeyFloat64{}).TotalKey() {
		t.Fatal("KeyFloat64 must not claim a total key: -0.0 and +0.0 tie under < with distinct bytes")
	}
}

func TestKeyStringBytesOrder(t *testing.T) {
	svals := []string{"", "\x00", "\x00\x00", "a", "aa", "ab", "b", "ba", "\xff", "\xff\xff"}
	checkOrder[string](t, KeyString{}, func(a, b string) bool { return a < b }, svals)

	bvals := make([][]byte, len(svals))
	for i, s := range svals {
		bvals[i] = []byte(s)
	}
	checkOrder[[]byte](t, KeyBytes{}, func(a, b []byte) bool { return bytes.Compare(a, b) < 0 }, bvals)
}

func TestKeyRecord16Order(t *testing.T) {
	vals := []record.Record{
		{Key: math.MinInt64, Aux: 9}, {Key: -5, Aux: 1}, {Key: 0, Aux: 7},
		{Key: 3, Aux: 0}, {Key: math.MaxInt64, Aux: 2},
	}
	checkOrder[record.Record](t, KeyRecord16{}, record.Less, vals)
	if (KeyRecord16{}).TotalKey() {
		t.Fatal("KeyRecord16 must not claim a total key: Aux is carried but not encoded")
	}
}

// TestEscapedFieldOrder pins the composite escaping: within a non-final
// variable-width field, a 0x00 payload byte (escaped to 0x00 0xFF) must
// order above the terminator (0x00 0x01) and below every other byte, so
// field-local order survives concatenation.
func TestEscapedFieldOrder(t *testing.T) {
	vals := []string{"", "\x00", "\x00\x00", "\x00\x01", "\x00a", "a", "a\x00", "a\x00b", "aa", "b"}
	kc := Composite[string]{
		Fields: []func(buf []byte, v string) []byte{AppendKeyStringEscaped},
		Total:  true,
	}
	checkOrder[string](t, kc, func(a, b string) bool { return a < b }, vals)
}

// TestCompositeFieldBoundaries pins that a variable-width first field never
// bleeds into the second: ("ab", 0) must sort before ("a", anything) is
// wrong — "a" < "ab" — and crucially ("a"+X, y) pairs must order by the
// field tuple, not by the raw concatenation.
func TestCompositeFieldBoundaries(t *testing.T) {
	type pair struct {
		S string
		N int64
	}
	kc := Composite[pair]{
		Fields: []func(buf []byte, v pair) []byte{
			func(buf []byte, v pair) []byte { return AppendKeyStringEscaped(buf, v.S) },
			func(buf []byte, v pair) []byte { return AppendKeyInt64(buf, v.N) },
		},
		Total: true,
	}
	less := func(a, b pair) bool {
		if a.S != b.S {
			return a.S < b.S
		}
		return a.N < b.N
	}
	vals := []pair{
		{"", -1}, {"", 0}, {"", 1},
		{"\x00", 5}, {"a", math.MaxInt64}, {"a\x00", math.MinInt64},
		{"a\x00b", 0}, {"ab", math.MinInt64}, {"ab", 0}, {"b", -7},
	}
	checkOrder[pair](t, kc, less, vals)
	// Without escaping, {"a", big} vs {"ab", small} would compare the 'b'
	// of "ab" against the first key byte of the int64 field — the exact
	// bleed the escape prevents. Assert the tuple order held above it.
	a, b := pair{"a", math.MaxInt64}, pair{"ab", math.MinInt64}
	ka, kb := kc.AppendKey(nil, a), kc.AppendKey(nil, b)
	if bytes.Compare(ka, kb) >= 0 {
		t.Fatalf("field boundary bleed: %v should key-sort before %v", a, b)
	}
}

func TestPrefixPadding(t *testing.T) {
	cases := []struct {
		key  []byte
		want uint64
	}{
		{nil, 0},
		{[]byte{0x01}, 0x01 << 56},
		{[]byte{0xFF, 0x00, 0x01}, 0xFF0001 << 40},
		{[]byte{1, 2, 3, 4, 5, 6, 7, 8}, 0x0102030405060708},
		{[]byte{1, 2, 3, 4, 5, 6, 7, 8, 0xFF}, 0x0102030405060708},
	}
	for _, c := range cases {
		if got := Prefix(c.key); got != c.want {
			t.Fatalf("Prefix(%x) = %#x, want %#x", c.key, got, c.want)
		}
	}
}

// TestPrefixerAgreement checks every built-in direct KeyPrefix against the
// reference Prefix(AppendKey(nil, v)) — the two must be bitwise equal or
// the cached-prefix hot paths and the key-byte slow paths would disagree.
func TestPrefixerAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		iv := rng.Int63() - rng.Int63()
		if got, want := (KeyInt64{}).KeyPrefix(iv), Prefix(AppendKeyInt64(nil, iv)); got != want {
			t.Fatalf("KeyInt64.KeyPrefix(%d) = %#x, want %#x", iv, got, want)
		}
		uv := rng.Uint64()
		if got, want := (KeyUint64{}).KeyPrefix(uv), Prefix(AppendKeyUint64(nil, uv)); got != want {
			t.Fatalf("KeyUint64.KeyPrefix(%d) = %#x, want %#x", uv, got, want)
		}
		fv := math.Float64frombits(rng.Uint64())
		if got, want := (KeyFloat64{}).KeyPrefix(fv), Prefix(AppendKeyFloat64(nil, fv)); got != want {
			t.Fatalf("KeyFloat64.KeyPrefix(%v) = %#x, want %#x", fv, got, want)
		}
		r := record.Record{Key: iv, Aux: uv}
		if got, want := (KeyRecord16{}).KeyPrefix(r), Prefix((KeyRecord16{}).AppendKey(nil, r)); got != want {
			t.Fatalf("KeyRecord16.KeyPrefix(%v) = %#x, want %#x", r, got, want)
		}
		sb := make([]byte, rng.Intn(12))
		rng.Read(sb)
		sv := string(sb)
		if got, want := (KeyString{}).KeyPrefix(sv), Prefix((KeyString{}).AppendKey(nil, sv)); got != want {
			t.Fatalf("KeyString.KeyPrefix(%q) = %#x, want %#x", sv, got, want)
		}
		if got, want := (KeyBytes{}).KeyPrefix(sb), Prefix((KeyBytes{}).AppendKey(nil, sb)); got != want {
			t.Fatalf("KeyBytes.KeyPrefix(%x) = %#x, want %#x", sb, got, want)
		}
	}
}

func TestKeyOrderConsistentRejectsBadCodecs(t *testing.T) {
	sample := []int64{3, -1, 4, 1, -5, 9, 2, 6}
	less := func(a, b int64) bool { return a < b }
	if !KeyOrderConsistent[int64](KeyInt64{}, less, sample) {
		t.Fatal("correct codec rejected")
	}
	// Reversed comparator against the ascending encoding.
	if KeyOrderConsistent[int64](KeyInt64{}, func(a, b int64) bool { return b < a }, sample) {
		t.Fatal("descending comparator accepted against ascending keys")
	}
	// Structurally wrong codec: little-endian two's complement bytes do not
	// memcmp-order (negative values sort above positive ones).
	bad := Composite[int64]{
		Fields: []func(buf []byte, v int64) []byte{
			func(buf []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(buf, uint64(v)) },
		},
		Fixed: 8,
	}
	if KeyOrderConsistent[int64](bad, less, sample) {
		t.Fatal("little-endian codec accepted")
	}
}

// FuzzKeyCodecOrder fuzzes the KeyCodec contract across every built-in
// codec at once: for each generated pair, bytes.Compare over the key bytes
// must agree with the comparator in both directions. The float lanes
// reinterpret the raw bits, so ±0.0, ±Inf, NaN payloads and subnormals all
// occur; the composite lane crosses a variable-width field boundary into a
// fixed-width field.
func FuzzKeyCodecOrder(f *testing.F) {
	f.Add(int64(0), int64(-1), uint64(0), uint64(math.MaxUint64), "", "a\x00b")
	f.Add(int64(math.MinInt64), int64(math.MaxInt64),
		math.Float64bits(math.Copysign(0, -1)), math.Float64bits(0), "a", "ab")
	f.Add(int64(-256), int64(256), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.NaN()), "\x00", "\x00\xff")
	f.Add(int64(1), int64(1), math.Float64bits(0),
		math.Float64bits(math.Copysign(0, -1)), "b", "b")
	f.Fuzz(func(t *testing.T, i1, i2 int64, u1, u2 uint64, s1, s2 string) {
		checkPair[int64](t, KeyInt64{}, func(a, b int64) bool { return a < b }, i1, i2)
		checkPair[uint64](t, KeyUint64{}, func(a, b uint64) bool { return a < b }, u1, u2)
		checkPair[string](t, KeyString{}, func(a, b string) bool { return a < b }, s1, s2)
		checkPair[[]byte](t, KeyBytes{},
			func(a, b []byte) bool { return bytes.Compare(a, b) < 0 }, []byte(s1), []byte(s2))

		// Floats from the raw uint64 bits; `<` is not strict-weak in the
		// presence of NaN, so assert only one direction of the contract —
		// strictly ordered pairs must key-order the same way — plus total
		// consistency of the encoding against totalOrder.
		f1, f2 := math.Float64frombits(u1), math.Float64frombits(u2)
		k1, k2 := AppendKeyFloat64(nil, f1), AppendKeyFloat64(nil, f2)
		if f1 < f2 && bytes.Compare(k1, k2) >= 0 {
			t.Fatalf("float64: %v < %v but keys %x >= %x", f1, f2, k1, k2)
		}
		if f2 < f1 && bytes.Compare(k2, k1) >= 0 {
			t.Fatalf("float64: %v < %v but keys %x >= %x", f2, f1, k2, k1)
		}
		if f1 == f2 && !bytes.Equal(k1, k2) {
			t.Fatalf("float64: %v and %v tie under < but key %x and %x", f1, f2, k1, k2)
		}

		checkPair[record.Record](t, KeyRecord16{}, record.Less,
			record.Record{Key: i1, Aux: u1}, record.Record{Key: i2, Aux: u2})

		// Composite (string, int64): the escaped first field must isolate
		// the second even when s1/s2 are prefixes of each other or contain
		// 0x00 bytes colliding with the terminator.
		type pair struct {
			S string
			N int64
		}
		kc := Composite[pair]{
			Fields: []func(buf []byte, v pair) []byte{
				func(buf []byte, v pair) []byte { return AppendKeyStringEscaped(buf, v.S) },
				func(buf []byte, v pair) []byte { return AppendKeyInt64(buf, v.N) },
			},
		}
		pless := func(a, b pair) bool {
			if a.S != b.S {
				return a.S < b.S
			}
			return a.N < b.N
		}
		checkPair[pair](t, kc, pless, pair{s1, i1}, pair{s2, i2})
		checkPair[pair](t, kc, pless, pair{s1, i1}, pair{s1, i2})
		checkPair[pair](t, kc, pless, pair{s1 + "\x00", i1}, pair{s1, i2})
	})
}

// checkPair asserts the contract on one pair, both directions, and checks
// the prefix coarsening: prefix(a) < prefix(b) must imply key(a) < key(b).
func checkPair[T any](t *testing.T, kc KeyCodec[T], less func(a, b T) bool, a, b T) {
	t.Helper()
	ka, kb := kc.AppendKey(nil, a), kc.AppendKey(nil, b)
	c := bytes.Compare(ka, kb)
	if (c < 0) != less(a, b) || (c > 0) != less(b, a) {
		t.Fatalf("contract violation: keys %x vs %x (compare %d), less(a,b)=%v less(b,a)=%v",
			ka, kb, c, less(a, b), less(b, a))
	}
	pa, pb := Prefix(ka), Prefix(kb)
	if pa < pb && c >= 0 {
		t.Fatalf("prefix coarsening violated: prefix %#x < %#x but key compare %d", pa, pb, c)
	}
	if pf, ok := kc.(Prefixer[T]); ok {
		if got := pf.KeyPrefix(a); got != pa {
			t.Fatalf("KeyPrefix disagrees with Prefix(AppendKey): %#x vs %#x", got, pa)
		}
	}
}

// TestKeyOrderConsistentAllocates pins the sampled order check to a few
// allocations whatever the sample's size: its keys share one buffer.
func TestKeyOrderConsistentAllocates(t *testing.T) {
	sample := make([]record.Record, 64)
	for i := range sample {
		sample[i] = record.Record{Key: int64(i * 7919 % 64)}
	}
	allocs := testing.AllocsPerRun(10, func() {
		if !KeyOrderConsistent[record.Record](KeyRecord16{}, record.Less, sample) {
			t.Fatal("KeyRecord16 disagrees with record.Less")
		}
	})
	if allocs > 3 {
		t.Fatalf("KeyOrderConsistent made %.0f allocations over 64 keys, want at most 3", allocs)
	}
}
