package stream

import (
	"errors"
	"io"
	"slices"
	"testing"
)

func seq(n int) []int {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	return vals
}

// TestReadPrefixDiscardPrepend walks one stream the way every caller does:
// buffer its head, put the buffer back, throw a stretch away, and read on —
// over a batching source and an element-at-a-time one, with the seams
// falling inside and across batches.
func TestReadPrefixDiscardPrepend(t *testing.T) {
	const n = 3*DefaultBatchLen + 17
	for name, open := range map[string]func() Reader[int]{
		"batch":   func() Reader[int] { return NewSliceReader(seq(n)) },
		"element": func() Reader[int] { return &errReader[int]{vals: seq(n), err: io.EOF} },
	} {
		caller := open()
		src := AsBatchReader(caller)
		head, ended, err := ReadPrefix(src, nil, DefaultBatchLen+5, nil)
		if err != nil || ended || !slices.Equal(head, seq(DefaultBatchLen+5)) {
			t.Fatalf("%s: ReadPrefix = %d elements, ended=%v, %v", name, len(head), ended, err)
		}
		whole := Prepend(head, src)
		if _, sized := caller.(Sized); sized && whole.Remaining() != n {
			t.Fatalf("%s: Remaining = %d, want %d", name, whole.Remaining(), n)
		} else if !sized && whole.Remaining() != -1 {
			t.Fatalf("%s: Remaining = %d over a tail that does not know, want -1", name, whole.Remaining())
		}
		var one [1]int
		if k, err := whole.ReadBatch(one[:]); k != 1 || one[0] != 0 || err != nil || len(whole.Head()) != len(head)-1 {
			t.Fatalf("%s: ReadBatch of one = %d (%d), %v with %d of the buffer left", name, k, one[0], err, len(whole.Head()))
		}
		if dropped, err := Discard[int](whole, 2*DefaultBatchLen, nil); dropped != 2*DefaultBatchLen || err != nil {
			t.Fatalf("%s: Discard = %d, %v", name, dropped, err)
		}
		rest, ended, err := ReadPrefix[int](whole, []int{-1}, n, nil)
		if err != nil || !ended || !slices.Equal(rest, append([]int{-1}, seq(n)[2*DefaultBatchLen+1:]...)) {
			t.Fatalf("%s: the rest = %d elements, ended=%v, %v", name, len(rest), ended, err)
		}
		if dropped, err := Discard[int](whole, 5, nil); dropped != 0 || err != nil {
			t.Fatalf("%s: Discard past the end = %d, %v, want 0 and no error", name, dropped, err)
		}
	}
}

// TestReadPrefixDiscardErrors: a source error comes back with what was read
// before it, and a cancel hook is polled before every batch.
func TestReadPrefixDiscardErrors(t *testing.T) {
	boom := errors.New("boom")
	got, _, err := ReadPrefix(AsBatchReader[int](&errReader[int]{vals: seq(5), err: boom}), nil, 9, nil)
	if err != boom || !slices.Equal(got, seq(5)) {
		t.Fatalf("ReadPrefix over a failing source = %v, %v", got, err)
	}
	if dropped, err := Discard(AsBatchReader[int](&errReader[int]{vals: seq(5), err: boom}), 9, nil); err != boom || dropped != 5 {
		t.Fatalf("Discard over a failing source = %d, %v", dropped, err)
	}
	polls := 0
	cancel := func() error {
		if polls++; polls > 2 {
			return boom
		}
		return nil
	}
	got, _, err = ReadPrefix[int](NewSliceReader(seq(5*DefaultBatchLen)), nil, 5*DefaultBatchLen, cancel)
	if err != boom || len(got) != 2*DefaultBatchLen {
		t.Fatalf("cancelled ReadPrefix = %d elements, %v", len(got), err)
	}
	polls = 0
	if dropped, err := Discard[int](NewSliceReader(seq(5*DefaultBatchLen)), 5*DefaultBatchLen, cancel); err != boom || dropped != 2*DefaultBatchLen {
		t.Fatalf("cancelled Discard = %d, %v", dropped, err)
	}
}
