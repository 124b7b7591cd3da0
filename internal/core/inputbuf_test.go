package core

import (
	"testing"

	"repro/internal/record"
)

func TestInputBufferPassThrough(t *testing.T) {
	src := record.NewSliceReader(record.FromKeys(3, 1, 2))
	b := newInputBuffer(src, 0, 64, record.Key, false, record.Less)
	err := b.fill()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.mean(); ok {
		t.Fatal("pass-through buffer should have no mean")
	}
	if _, ok := b.median(); ok {
		t.Fatal("pass-through buffer should have no median")
	}
	var got []int64
	for {
		rec, ok, err := b.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, rec.Key)
	}
	want := []int64{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestInputBufferFIFOOrder(t *testing.T) {
	src := record.NewSliceReader(record.FromKeys(10, 20, 30, 40, 50))
	b := newInputBuffer(src, 3, 64, record.Key, false, record.Less)
	err := b.fill()
	if err != nil {
		t.Fatal(err)
	}
	// Pre-filled with {10,20,30}: mean 20.
	if m, ok := b.mean(); !ok || m != 20 {
		t.Fatalf("mean = (%v, %v), want (20, true)", m, ok)
	}
	rec, ok, _ := b.next()
	if !ok || rec.Key != 10 {
		t.Fatalf("first = %v, want key 10", rec)
	}
	// Refilled with 40: contents {20,30,40}, mean 30.
	if m, _ := b.mean(); m != 30 {
		t.Fatalf("mean after refill = %v, want 30", m)
	}
	for _, want := range []int64{20, 30, 40, 50} {
		rec, ok, _ := b.next()
		if !ok || rec.Key != want {
			t.Fatalf("next = (%v, %v), want key %d", rec, ok, want)
		}
	}
	if _, ok, _ := b.next(); ok {
		t.Fatal("expected end of input")
	}
	if _, ok := b.mean(); ok {
		t.Fatal("drained buffer should have no mean")
	}
}

func TestInputBufferMedianTracking(t *testing.T) {
	src := record.NewSliceReader(record.FromKeys(5, 1, 9, 3, 7))
	b := newInputBuffer(src, 3, 64, record.Key, true, record.Less)
	err := b.fill()
	if err != nil {
		t.Fatal(err)
	}
	// Contents {5,1,9}: lower median 5.
	if md, ok := b.median(); !ok || md.Key != 5 {
		t.Fatalf("median = (%v, %v), want (5, true)", md, ok)
	}
	b.next() // consume 5; contents {1,9,3}: median 3
	if md, _ := b.median(); md.Key != 3 {
		t.Fatalf("median = %v, want 3", md)
	}
	b.next() // consume 1; contents {9,3,7}: median 7
	if md, _ := b.median(); md.Key != 7 {
		t.Fatalf("median = %v, want 7", md)
	}
}

func TestInputBufferShorterThanCapacity(t *testing.T) {
	src := record.NewSliceReader(record.FromKeys(1, 2))
	b := newInputBuffer(src, 10, 64, record.Key, false, record.Less)
	err := b.fill()
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := b.mean(); !ok || m != 1.5 {
		t.Fatalf("mean = (%v, %v), want (1.5, true)", m, ok)
	}
	n := 0
	for {
		_, ok, _ := b.next()
		if !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("read %d records, want 2", n)
	}
}

func TestInputBufferEmptySource(t *testing.T) {
	b := newInputBuffer(record.NewSliceReader(nil), 4, 64, record.Key, true, record.Less)
	err := b.fill()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.next(); ok {
		t.Fatal("empty source should yield nothing")
	}
	if _, ok := b.mean(); ok {
		t.Fatal("empty buffer should have no mean")
	}
	if _, ok := b.median(); ok {
		t.Fatal("empty buffer should have no median")
	}
}
