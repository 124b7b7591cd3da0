package stream

import (
	"errors"
	"io"
	"slices"
	"testing"
)

func TestSliceReaderElementAndBatch(t *testing.T) {
	vals := []int{1, 2, 3, 4, 5}
	r := NewSliceReader(vals)
	if got := r.Remaining(); got != 5 {
		t.Fatalf("Remaining = %d, want 5", got)
	}
	v, err := r.Read()
	if err != nil || v != 1 {
		t.Fatalf("Read = %v, %v", v, err)
	}
	buf := make([]int, 3)
	n, err := r.ReadBatch(buf)
	if err != nil || n != 3 || buf[0] != 2 || buf[2] != 4 {
		t.Fatalf("ReadBatch = %d, %v, %v", n, err, buf)
	}
	if got := r.Remaining(); got != 1 {
		t.Fatalf("Remaining = %d, want 1", got)
	}
	// Short batch at the tail, then EOF.
	n, err = r.ReadBatch(buf)
	if err != nil || n != 1 || buf[0] != 5 {
		t.Fatalf("tail ReadBatch = %d, %v, %v", n, err, buf)
	}
	if n, err = r.ReadBatch(buf); n != 0 || err != io.EOF {
		t.Fatalf("exhausted ReadBatch = %d, %v, want 0, EOF", n, err)
	}
	if _, err = r.Read(); err != io.EOF {
		t.Fatalf("exhausted Read err = %v, want EOF", err)
	}
}

func TestSliceReaderEmptyDst(t *testing.T) {
	r := NewSliceReader([]int{1})
	if n, err := r.ReadBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty dst = %d, %v, want 0, nil", n, err)
	}
	r2 := NewSliceReader([]int(nil))
	if n, err := r2.ReadBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty dst on empty source = %d, %v, want 0, nil", n, err)
	}
}

func TestSliceWriterBatch(t *testing.T) {
	var w SliceWriter[string]
	if err := w.Write("a"); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch([]string{"b", "c"}); err != nil {
		t.Fatal(err)
	}
	if len(w.Vals) != 3 || w.Vals[2] != "c" {
		t.Fatalf("Vals = %v", w.Vals)
	}
}

// errReader yields vals and then a terminal error (or io.EOF).
type errReader[T any] struct {
	vals []T
	err  error
}

func (e *errReader[T]) Read() (T, error) {
	if len(e.vals) == 0 {
		var zero T
		return zero, e.err
	}
	v := e.vals[0]
	e.vals = e.vals[1:]
	return v, nil
}

func TestAsBatchReaderPassthrough(t *testing.T) {
	r := NewSliceReader([]int{1, 2})
	if br := AsBatchReader[int](r); br != BatchReader[int](r) {
		t.Fatal("AsBatchReader wrapped a reader that already batches")
	}
}

func TestAsBatchReaderAdapterDefersMidBatchError(t *testing.T) {
	boom := errors.New("boom")
	br := AsBatchReader[int](&errReader[int]{vals: []int{7, 8}, err: boom})
	buf := make([]int, 4)
	// First call: the two elements arrive, the error is held back.
	n, err := br.ReadBatch(buf)
	if n != 2 || err != nil || buf[0] != 7 || buf[1] != 8 {
		t.Fatalf("first ReadBatch = %d, %v, %v", n, err, buf[:2])
	}
	// Second call: the deferred error, with n == 0.
	if n, err = br.ReadBatch(buf); n != 0 || err != boom {
		t.Fatalf("second ReadBatch = %d, %v, want 0, boom", n, err)
	}
}

// sizedReader is an element source that knows its length.
type sizedReader[T any] struct{ errReader[T] }

func (s *sizedReader[T]) Remaining() int { return len(s.vals) }

// TestAsBatchReaderAdapterForwardsSized: the adapter reports what a Sized
// source reports, and -1 — unknown — over one that is not; an empty dst reads
// as (0, nil) without touching the source.
func TestAsBatchReaderAdapterForwardsSized(t *testing.T) {
	br := AsBatchReader[int](&sizedReader[int]{errReader[int]{vals: []int{1, 2, 3}, err: io.EOF}})
	if n, err := br.ReadBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty dst = %d, %v, want 0, nil", n, err)
	}
	if got := br.(Sized).Remaining(); got != 3 {
		t.Fatalf("Remaining = %d, want 3", got)
	}
	br.ReadBatch(make([]int, 2))
	if got := br.(Sized).Remaining(); got != 1 {
		t.Fatalf("Remaining after a batch of 2 = %d, want 1", got)
	}
	if got := AsBatchReader[int](&errReader[int]{err: io.EOF}).(Sized).Remaining(); got != -1 {
		t.Fatalf("Remaining over an unsized source = %d, want -1", got)
	}
	out, err := ReadAll[int](&sizedReader[int]{errReader[int]{vals: seq(3000), err: io.EOF}})
	if err != nil || len(out) != 3000 || cap(out) != 3000 {
		t.Fatalf("ReadAll over a sized element source = %d elements, cap %d, %v; want 3000 pre-sized", len(out), cap(out), err)
	}
}

func TestAsBatchReaderAdapterEOF(t *testing.T) {
	br := AsBatchReader[int](&errReader[int]{vals: []int{1, 2, 3}, err: io.EOF})
	buf := make([]int, 2)
	n, err := br.ReadBatch(buf)
	if n != 2 || err != nil {
		t.Fatalf("full batch = %d, %v", n, err)
	}
	n, err = br.ReadBatch(buf)
	if n != 1 || err != nil {
		t.Fatalf("short batch = %d, %v", n, err)
	}
	if n, err = br.ReadBatch(buf); n != 0 || err != io.EOF {
		t.Fatalf("end = %d, %v, want 0, EOF", n, err)
	}
}

// errWriter fails after accepting `accept` elements.
type errWriter[T any] struct {
	accept int
	got    []T
	err    error
}

func (e *errWriter[T]) Write(v T) error {
	if len(e.got) >= e.accept {
		return e.err
	}
	e.got = append(e.got, v)
	return nil
}

func TestAsBatchWriterAdapter(t *testing.T) {
	boom := errors.New("disk full")
	w := &errWriter[int]{accept: 2, err: boom}
	bw := AsBatchWriter[int](w)
	if err := bw.WriteBatch([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteBatch([]int{3}); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(w.got) != 2 {
		t.Fatalf("accepted %d elements, want 2", len(w.got))
	}
	var sw SliceWriter[int]
	if bw := AsBatchWriter[int](&sw); bw != BatchWriter[int](&sw) {
		t.Fatal("AsBatchWriter wrapped a writer that already batches")
	}
}

// Reading a batch reader one element at a time is a Fetcher's job: over a
// native batch source several refills deep, and over the adapter, whose
// mid-batch error must arrive after the element read before it.
func TestElementReader(t *testing.T) {
	f := NewFetcher[int](NewSliceReader([]int{1, 2, 3, 4, 5}), 2) // force several refills
	var got []int
	for {
		v, ok, err := f.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 5 || got[4] != 5 {
		t.Fatalf("got %v", got)
	}
}

func TestElementReaderError(t *testing.T) {
	boom := errors.New("boom")
	f := NewFetcher(AsBatchReader[int](&errReader[int]{vals: []int{9}, err: boom}), 4)
	if v, ok, err := f.Next(); v != 9 || !ok || err != nil {
		t.Fatalf("Next = %v, %v, %v", v, ok, err)
	}
	if _, ok, err := f.Next(); ok || err != boom {
		t.Fatalf("Next after error = %v, %v, want false, boom", ok, err)
	}
}

func TestElementWriterFlush(t *testing.T) {
	var sw SliceWriter[int]
	ew := NewElementWriter[int](&sw, 2)
	for i := 1; i <= 5; i++ {
		if err := ew.Write(i); err != nil {
			t.Fatal(err)
		}
	}
	// Two full batches went through; the fifth element is still buffered.
	if len(sw.Vals) != 4 {
		t.Fatalf("pre-flush Vals = %v", sw.Vals)
	}
	if err := ew.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sw.Vals) != 5 || sw.Vals[4] != 5 {
		t.Fatalf("post-flush Vals = %v", sw.Vals)
	}
	if err := ew.Flush(); err != nil { // idempotent on empty buffer
		t.Fatal(err)
	}
}

func TestFetcher(t *testing.T) {
	f := NewFetcher[int](NewSliceReader([]int{1, 2, 3}), 2)
	var got []int
	for {
		v, ok, err := f.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, v)
	}
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
	// Exhaustion is sticky.
	if _, ok, err := f.Next(); ok || err != nil {
		t.Fatalf("post-EOF Next = %v, %v", ok, err)
	}
}

func TestFetcherError(t *testing.T) {
	boom := errors.New("boom")
	f := NewFetcher(AsBatchReader[int](&errReader[int]{vals: []int{5}, err: boom}), 3)
	if v, ok, err := f.Next(); v != 5 || !ok || err != nil {
		t.Fatalf("Next = %v, %v, %v", v, ok, err)
	}
	if _, ok, err := f.Next(); ok || err != boom {
		t.Fatalf("Next after error = %v, %v, want false, boom", ok, err)
	}
	// The failure is sticky too.
	if _, ok, err := f.Next(); ok || err != boom {
		t.Fatalf("sticky Next = %v, %v, want false, boom", ok, err)
	}
}

// TestFetcherPeekSkip mixes Next with Peek and Skip: Peek shows the rest of
// the current batch, reading the next one when it is used up, and Skip
// takes a prefix of it, so the three together hand out every element once.
func TestFetcherPeekSkip(t *testing.T) {
	boom := errors.New("boom")
	f := NewFetcher(AsBatchReader[int](&errReader[int]{vals: []int{1, 2, 3, 4, 5, 6, 7}, err: boom}), 3)
	var got []int
	if v, _, _ := f.Next(); v != 1 {
		t.Fatalf("Next = %d, want 1", v)
	}
	got = append(got, 1)
	for step := 0; ; step++ {
		p, err := f.Peek()
		if len(p) == 0 {
			if err != boom {
				t.Fatalf("Peek at the end = %v, %v, want empty and boom", p, err)
			}
			break
		}
		k := 1 + step%len(p)
		got = append(got, p[:k]...)
		f.Skip(k)
	}
	if !slices.Equal(got, []int{1, 2, 3, 4, 5, 6, 7}) {
		t.Fatalf("Next, Peek and Skip handed out %v", got)
	}
	if _, ok, err := f.Next(); ok || err != boom {
		t.Fatalf("Next after the end = %v, %v, want false, boom", ok, err)
	}
}

func TestReadAllPreSizes(t *testing.T) {
	vals := make([]int, 3000)
	for i := range vals {
		vals[i] = i
	}
	out, err := ReadAll[int](NewSliceReader(vals))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(vals) || out[2999] != 2999 {
		t.Fatalf("out len %d", len(out))
	}
	if cap(out) != len(vals) {
		t.Fatalf("ReadAll did not pre-size: cap %d, want %d", cap(out), len(vals))
	}
}

func TestReadAllError(t *testing.T) {
	boom := errors.New("boom")
	out, err := ReadAll[int](&errReader[int]{vals: []int{1, 2}, err: boom})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(out) != 2 {
		t.Fatalf("partial out = %v", out)
	}
}

func TestWriteAll(t *testing.T) {
	var sw SliceWriter[int]
	if err := WriteAll[int](&sw, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(sw.Vals) != 3 {
		t.Fatalf("Vals = %v", sw.Vals)
	}
	boom := errors.New("boom")
	if err := WriteAll[int](&errWriter[int]{accept: 1, err: boom}, []int{1, 2}); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestCopy(t *testing.T) {
	vals := make([]int, 2500) // spans multiple internal batches
	for i := range vals {
		vals[i] = i
	}
	var sw SliceWriter[int]
	n, err := Copy[int](&sw, NewSliceReader(vals))
	if err != nil || n != 2500 {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	for i, v := range sw.Vals {
		if v != i {
			t.Fatalf("Vals[%d] = %d", i, v)
		}
	}
}

func TestCopyPropagatesErrors(t *testing.T) {
	boom := errors.New("read fail")
	var sw SliceWriter[int]
	if _, err := Copy[int](&sw, &errReader[int]{vals: []int{1}, err: boom}); err != boom {
		t.Fatalf("read err = %v, want boom", err)
	}
	wboom := errors.New("write fail")
	n, err := Copy[int](&errWriter[int]{accept: 0, err: wboom}, NewSliceReader([]int{1, 2}))
	if err != wboom || n != 0 {
		t.Fatalf("write err = %d, %v, want 0, write fail", n, err)
	}
}

// readFunc and writeFunc adapt closures to the element-at-a-time Reader
// and Writer: a caller's source and sink, neither of which speaks the batch
// protocol.
type readFunc[T any] func() (T, error)

func (f readFunc[T]) Read() (T, error) { return f() }

type writeFunc[T any] func(T) error

func (f writeFunc[T]) Write(v T) error { return f(v) }

// TestCopyCancelElementPathCadence is the regression test for the
// cancellation audit: CopyCancel over two adapted element-at-a-time endpoints
// (a caller's source and sink — neither speaks the batch protocol) must abandon
// the stream within one DefaultBatchLen batch of the hook firing, the
// 1024-op cadence DESIGN.md documents. Before CopyCancel existed, plain
// Copy had no cancellation hook at all and would spin on an endless
// element source forever.
func TestCopyCancelElementPathCadence(t *testing.T) {
	sentinel := errors.New("cancelled")
	reads := 0
	endless := readFunc[int](func() (int, error) { reads++; return reads, nil })
	writes := 0
	w := writeFunc[int](func(int) error { writes++; return nil })
	// Let exactly one batch through, then fire: the copy must stop at the
	// next batch boundary.
	polls := 0
	cancel := func() error {
		polls++
		if polls > 1 {
			return sentinel
		}
		return nil
	}
	n, err := CopyCancel(w, AsBatchReader[int](endless), cancel)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the cancel sentinel", err)
	}
	if n != DefaultBatchLen || writes != DefaultBatchLen {
		t.Fatalf("copied %d (writes %d), want exactly one %d-element batch", n, writes, DefaultBatchLen)
	}
	if reads > 2*DefaultBatchLen {
		t.Fatalf("source read %d times; cadence after cancellation not honoured", reads)
	}
}

// TestReadAllCancelElementPathCadence pins the same cadence for ReadAll's
// cancellable form.
func TestReadAllCancelElementPathCadence(t *testing.T) {
	sentinel := errors.New("cancelled")
	reads := 0
	endless := readFunc[int](func() (int, error) { reads++; return reads, nil })
	polls := 0
	out, err := ReadAllCancel(AsBatchReader[int](endless), func() error {
		polls++
		if polls > 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the cancel sentinel", err)
	}
	if len(out) != 2*DefaultBatchLen || reads > 3*DefaultBatchLen {
		t.Fatalf("drained %d elements over %d reads before stopping", len(out), reads)
	}
}

// TestCopyCancelNilNeverPolls pins that Copy and a nil hook behave
// identically to the historical Copy.
func TestCopyCancelNilNeverPolls(t *testing.T) {
	vals := []int{3, 1, 2}
	var w SliceWriter[int]
	n, err := CopyCancel[int](&w, NewSliceReader(vals), nil)
	if err != nil || n != 3 || len(w.Vals) != 3 {
		t.Fatalf("CopyCancel(nil) = %d, %v, %v", n, err, w.Vals)
	}
}
