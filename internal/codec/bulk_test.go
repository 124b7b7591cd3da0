package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/record"
)

// checkBulk holds a codec's bulk kernels against its element methods: the
// encoding of vals is byte for byte that of repeated Append, and decoding
// any prefix of it — one that ends mid-element included — into any
// destination length yields what repeated Decode yields and stops where it
// stops.
func checkBulk[T comparable](t *testing.T, c Codec[T], vals []T, cut int) {
	t.Helper()
	b, ok := c.(Bulk[T])
	if !ok {
		t.Fatalf("%T is fixed-width and offers no bulk kernels", c)
	}
	prefix := []byte("keep")
	want := append([]byte(nil), prefix...)
	for _, v := range vals {
		want = c.Append(want, v)
	}
	got := b.AppendAll(append([]byte(nil), prefix...), vals)
	if !bytes.Equal(got, want) {
		t.Fatalf("%T: AppendAll of %d elements differs from repeated Append", c, len(vals))
	}
	// A destination with room to spare: AppendAll must not reallocate.
	roomy := append(make([]byte, 0, len(want)+1), prefix...)
	if got := b.AppendAll(roomy, vals); &got[0] != &roomy[0] || !bytes.Equal(got, want) {
		t.Fatalf("%T: AppendAll into spare capacity reallocated or differs", c)
	}

	enc := want[len(prefix):]
	enc = enc[:min(max(cut, 0), len(enc))]
	var elems []T
	for rest := enc; ; {
		v, n, err := c.Decode(rest)
		if err != nil {
			break // ErrShort: the buffer ends here, mid-element or not
		}
		elems = append(elems, v)
		rest = rest[n:]
	}
	for _, room := range []int{0, 1, len(elems), len(elems) + 3} {
		dst := make([]T, room)
		n := b.DecodeAll(dst, enc)
		if n != min(room, len(elems)) {
			t.Fatalf("%T: DecodeAll of %d bytes into %d slots decoded %d, repeated Decode %d", c, len(enc), room, n, len(elems))
		}
		for i := range dst[:n] {
			if dst[i] != elems[i] {
				t.Fatalf("%T: DecodeAll element %d is %v, Decode gives %v", c, i, dst[i], elems[i])
			}
		}
	}
}

// checkBulkPrefix holds PrefixAllFunc — a built-in Prefixer's KeyPrefixAll
// where it has one, the element loop where it does not — to the words of
// repeated KeyPrefix, themselves Prefix of the key bytes: a codec's bulk key
// face changes speed only.
func checkBulkPrefix[T any](t *testing.T, kc KeyCodec[T], vals []T) {
	t.Helper()
	p, ok := kc.(Prefixer[T])
	if !ok {
		t.Fatalf("%T is built in and offers no KeyPrefix", kc)
	}
	const untouched = 0xdeadbeef
	dst := make([]uint64, len(vals)+1)
	dst[len(vals)] = untouched
	PrefixAllFunc(kc)(dst, vals)
	for i, v := range vals {
		if want := p.KeyPrefix(v); dst[i] != want || want != Prefix(kc.AppendKey(nil, v)) {
			t.Fatalf("%T: element %d: bulk key %#x, KeyPrefix %#x, Prefix of the key bytes %#x",
				kc, i, dst[i], want, Prefix(kc.AppendKey(nil, v)))
		}
	}
	if dst[len(vals)] != untouched {
		t.Fatalf("%T: the bulk key face wrote past the %d elements it was given", kc, len(vals))
	}
}

// bulkCase runs checkBulk for every fixed-width codec, and checkBulkPrefix
// for every built-in key codec, over elements cut from data, 16 bytes each.
func bulkCase(t *testing.T, data []byte, cut int) {
	var (
		recs   []record.Record
		ints   []int64
		uints  []uint64
		floats []float64
		keys   []float64 // NaNs included: a key is bits, not a comparison
		strs   []string
		blobs  [][]byte
	)
	for ; len(data) >= 16; data = data[16:] {
		k, a := binary.LittleEndian.Uint64(data), binary.LittleEndian.Uint64(data[8:])
		recs = append(recs, record.Record{Key: int64(k), Aux: a})
		ints = append(ints, int64(k))
		uints = append(uints, a)
		keys = append(keys, math.Float64frombits(k))
		strs = append(strs, string(data[:a%17]))
		blobs = append(blobs, data[:k%17])
		// NaN never equals itself; its bits are covered by Uint64.
		if f := math.Float64frombits(k); f == f {
			floats = append(floats, f)
		}
	}
	checkBulk[record.Record](t, Record16{}, recs, cut)
	checkBulk[int64](t, Int64{}, ints, cut)
	checkBulk[uint64](t, Uint64{}, uints, cut)
	checkBulk[float64](t, Float64{}, floats, cut)

	checkBulkPrefix[record.Record](t, KeyRecord16{}, recs)
	checkBulkPrefix[int64](t, KeyInt64{}, ints)
	checkBulkPrefix[uint64](t, KeyUint64{}, uints)
	checkBulkPrefix[float64](t, KeyFloat64{}, keys)
	checkBulkPrefix[string](t, KeyString{}, strs)
	checkBulkPrefix[[]byte](t, KeyBytes{}, blobs)
}

func TestBulkMatchesElementCodec(t *testing.T) {
	data := make([]byte, 16*100)
	for i := range data {
		data[i] = byte(i*131 + i>>3)
	}
	for _, cut := range []int{0, 1, 7, 8, 15, 16, 17, 16*50 + 5, len(data)} {
		bulkCase(t, data, cut)
	}
	bulkCase(t, nil, 0)
}

// FuzzBulkMatchesElementCodec lets the fuzzer pick the elements and where
// the decode buffer ends.
func FuzzBulkMatchesElementCodec(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add(bytes.Repeat([]byte{0xff}, 48), 47)
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, 5), 33)
	f.Fuzz(func(t *testing.T, data []byte, cut int) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		bulkCase(t, data, cut)
	})
}
