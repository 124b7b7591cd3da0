package record

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Record{
		{Key: 0, Aux: 0},
		{Key: 1, Aux: 2},
		{Key: -1, Aux: math.MaxUint64},
		{Key: math.MaxInt64, Aux: 42},
		{Key: math.MinInt64, Aux: 7},
	}
	var buf [Size]byte
	for _, r := range cases {
		Encode(buf[:], r)
		got := Decode(buf[:])
		if got != r {
			t.Errorf("round trip %v: got %v", r, got)
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(key int64, aux uint64) bool {
		var buf [Size]byte
		r := Record{Key: key, Aux: aux}
		Encode(buf[:], r)
		return Decode(buf[:]) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLessAndCompare(t *testing.T) {
	a := Record{Key: 1}
	b := Record{Key: 2}
	if !a.Less(b) || b.Less(a) || a.Less(a) {
		t.Error("Less ordering wrong")
	}
	if Compare(a, b) != -1 || Compare(b, a) != 1 || Compare(a, a) != 0 {
		t.Error("Compare ordering wrong")
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted(nil) {
		t.Error("nil slice should be sorted")
	}
	if !IsSorted(FromKeys(1, 1, 2, 3)) {
		t.Error("non-decreasing slice should be sorted")
	}
	if IsSorted(FromKeys(2, 1)) {
		t.Error("decreasing slice should not be sorted")
	}
	if !IsReverseSorted(FromKeys(3, 3, 2)) {
		t.Error("non-increasing slice should be reverse sorted")
	}
	if IsReverseSorted(FromKeys(1, 2)) {
		t.Error("increasing slice should not be reverse sorted")
	}
}

func TestMultisetEqual(t *testing.T) {
	a := NewMultiset(FromKeys(1, 2, 2, 3))
	b := NewMultiset(FromKeys(1, 2, 2, 3))
	if !a.Equal(b) {
		t.Error("identical multisets should be equal")
	}
	c := NewMultiset(FromKeys(1, 2, 3, 3))
	if a.Equal(c) {
		t.Error("different multisets should not be equal")
	}
	d := NewMultiset(FromKeys(1, 2, 2))
	if a.Equal(d) {
		t.Error("multisets of different size should not be equal")
	}
}

func TestMultisetAuxDistinguishes(t *testing.T) {
	a := NewMultiset([]Record{{Key: 1, Aux: 0}})
	b := NewMultiset([]Record{{Key: 1, Aux: 1}})
	if a.Equal(b) {
		t.Error("multiset must distinguish records by aux too")
	}
}

func TestSliceReaderWriter(t *testing.T) {
	recs := FromKeys(4, 2, 7)
	r := stream.NewSliceReader(recs)
	if r.Remaining() != 3 {
		t.Fatalf("Remaining = %d, want 3", r.Remaining())
	}
	var w stream.SliceWriter[Record]
	n, err := stream.Copy[Record](&w, r)
	if err != nil || n != 3 {
		t.Fatalf("Copy = (%d, %v), want (3, nil)", n, err)
	}
	if len(w.Vals) != 3 || w.Vals[2].Key != 7 {
		t.Fatalf("copied records wrong: %v", w.Vals)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

func TestReadAllWriteAll(t *testing.T) {
	recs := FromKeys(9, 8, 7, 6)
	var w stream.SliceWriter[Record]
	if err := w.WriteBatch(recs); err != nil {
		t.Fatal(err)
	}
	got, err := stream.ReadAll[Record](stream.NewSliceReader(w.Vals))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
}

func TestByteReaderWriter(t *testing.T) {
	recs := FromKeys(1, -5, 1000)
	var buf bytes.Buffer
	bw := NewByteWriter(&buf)
	if err := bw.WriteBatch(recs); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(recs)*Size {
		t.Fatalf("wrote %d bytes, want %d", buf.Len(), len(recs)*Size)
	}
	br := NewByteReader(&buf)
	got, err := stream.ReadAll[Record](br)
	if err != nil {
		t.Fatal(err)
	}
	if !NewMultiset(got).Equal(NewMultiset(recs)) {
		t.Fatalf("round trip mismatch: %v vs %v", got, recs)
	}
}

func TestByteReaderPartialRecord(t *testing.T) {
	br := NewByteReader(bytes.NewReader(make([]byte, Size-1)))
	if _, err := br.Read(); err != io.ErrUnexpectedEOF {
		t.Fatalf("partial record read = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestKeysAndFromKeys(t *testing.T) {
	want := []int64{3, 1, 2}
	for i, r := range FromKeys(want...) {
		if r.Key != want[i] || r.Aux != uint64(i) {
			t.Fatalf("FromKeys record %d = %v, want {%d/%d}", i, r, want[i], i)
		}
	}
}
