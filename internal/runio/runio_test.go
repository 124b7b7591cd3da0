package runio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

func writeForward(t *testing.T, fs vfs.FS, name string, keys []int64) {
	t.Helper()
	w, err := NewWriter(storage.NewRaw(fs), name, 64, codec.Record16{}, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := w.Write(record.Record{Key: k, Aux: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAllClosing(t *testing.T, r *Reader[record.Record]) []record.Record {
	t.Helper()
	recs, err := stream.ReadAllCancel[record.Record](r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// readOne reads a single element through the batch protocol.
func readOne[T any](r *Reader[T]) (T, error) {
	var one [1]T
	_, err := r.ReadBatch(one[:])
	return one[0], err
}

// openWhole opens a run that must be a single sorted piece.
func openWhole[T any](t *testing.T, st storage.Backend, run Run, bufBytes int, c codec.Codec[T]) *Reader[T] {
	t.Helper()
	pieces, err := OpenRun(st, run, bufBytes, c)
	if err != nil || len(pieces) != 1 {
		t.Fatalf("OpenRun = %d pieces, %v; want one", len(pieces), err)
	}
	return pieces[0]
}

func TestForwardRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	keys := []int64{1, 2, 2, 3, 10, 100}
	writeForward(t, fs, "r1", keys)
	r, err := NewReader(storage.NewRaw(fs), "r1", 64, codec.Record16{})
	if err != nil {
		t.Fatal(err)
	}
	got := readAllClosing(t, r)
	if len(got) != len(keys) {
		t.Fatalf("got %d records, want %d", len(got), len(keys))
	}
	for i, k := range keys {
		if got[i].Key != k || got[i].Aux != uint64(i) {
			t.Fatalf("record %d = %v, want key %d aux %d", i, got[i], k, i)
		}
	}
}

func TestForwardWriterRejectsOutOfOrder(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(storage.NewRaw(fs), "r", 0, codec.Record16{}, record.Less)
	defer w.Close()
	w.Write(record.Record{Key: 5})
	err := w.Write(record.Record{Key: 4})
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order write = %v, want ErrOutOfOrder", err)
	}
}

func TestForwardWriterCount(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewWriter(storage.NewRaw(fs), "r", 0, codec.Record16{}, record.Less)
	for i := 0; i < 7; i++ {
		w.Write(record.Record{Key: int64(i)})
	}
	if w.Count() != 7 {
		t.Fatalf("Count = %d, want 7", w.Count())
	}
	w.Close()
	if err := w.Close(); err != stream.ErrClosed {
		t.Fatalf("double close = %v, want ErrClosed", err)
	}
}

func TestForwardEmptyRun(t *testing.T) {
	fs := vfs.NewMemFS()
	writeForward(t, fs, "empty", nil)
	r, err := NewReader(storage.NewRaw(fs), "empty", 0, codec.Record16{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readOne(r); err != io.EOF {
		t.Fatalf("read of empty run = %v, want io.EOF", err)
	}
	r.Close()
}

func TestForwardTinyBuffer(t *testing.T) {
	// A 1-byte requested buffer must be rounded up to one record.
	fs := vfs.NewMemFS()
	w, err := NewWriter(storage.NewRaw(fs), "r", 1, codec.Record16{}, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Write(record.Record{Key: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	r, err := NewReader(storage.NewRaw(fs), "r", 1, codec.Record16{})
	if err != nil {
		t.Fatal(err)
	}
	got := readAllClosing(t, r)
	if len(got) != 10 || !record.IsSorted(got) {
		t.Fatalf("tiny buffer round trip broken: %v", got)
	}
}

func TestBackwardRoundTripSingleFile(t *testing.T) {
	fs := vfs.NewMemFS()
	w, err := NewBackwardWriter(storage.NewRaw(fs), "b", 64, 4, codec.Record16{}, record.Less) // 4 records per page, 3 data pages
	if err != nil {
		t.Fatal(err)
	}
	// Descending input 9..0 fits in 10 records < 12 capacity.
	for i := 9; i >= 0; i-- {
		if err := w.Write(record.Record{Key: int64(i), Aux: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Files() != 1 {
		t.Fatalf("Files = %d, want 1", w.Files())
	}
	r, err := NewBackwardReader(storage.NewRaw(fs), "b", w.Files(), 64, codec.Record16{})
	if err != nil {
		t.Fatal(err)
	}
	got := readAllClosing(t, r)
	if len(got) != 10 {
		t.Fatalf("got %d records, want 10", len(got))
	}
	for i, rec := range got {
		if rec.Key != int64(i) {
			t.Fatalf("record %d has key %d, want ascending order", i, rec.Key)
		}
	}
}

func TestBackwardRoundTripMultiFile(t *testing.T) {
	fs := vfs.NewMemFS()
	// 2 data pages x 4 records = 8 records per file; 30 records -> 4 files.
	w, err := NewBackwardWriter(storage.NewRaw(fs), "b", 64, 3, codec.Record16{}, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	for i := 29; i >= 0; i-- {
		if err := w.Write(record.Record{Key: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Files() != 4 {
		t.Fatalf("Files = %d, want 4", w.Files())
	}
	r, _ := NewBackwardReader(storage.NewRaw(fs), "b", w.Files(), 64, codec.Record16{})
	got := readAllClosing(t, r)
	if len(got) != 30 {
		t.Fatalf("got %d records, want 30", len(got))
	}
	if !record.IsSorted(got) {
		t.Fatal("backward chain did not read ascending")
	}
	if got[0].Key != 0 || got[29].Key != 29 {
		t.Fatalf("range wrong: first %d last %d", got[0].Key, got[29].Key)
	}
}

func TestBackwardExactlyFullFile(t *testing.T) {
	fs := vfs.NewMemFS()
	// Exactly one full file: 2 data pages x 4 records.
	w, _ := NewBackwardWriter(storage.NewRaw(fs), "b", 64, 3, codec.Record16{}, record.Less)
	for i := 7; i >= 0; i-- {
		w.Write(record.Record{Key: int64(i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Files() != 1 {
		t.Fatalf("Files = %d, want 1", w.Files())
	}
	r, _ := NewBackwardReader(storage.NewRaw(fs), "b", 1, 0, codec.Record16{})
	got := readAllClosing(t, r)
	if len(got) != 8 || !record.IsSorted(got) {
		t.Fatalf("full-file chain broken: %v", got)
	}
}

func TestBackwardEmptyStream(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewBackwardWriter(storage.NewRaw(fs), "b", 64, 3, codec.Record16{}, record.Less)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Files() != 0 {
		t.Fatalf("Files = %d, want 0", w.Files())
	}
	r, _ := NewBackwardReader(storage.NewRaw(fs), "b", 0, 0, codec.Record16{})
	if _, err := readOne(r); err != io.EOF {
		t.Fatalf("empty chain read = %v, want io.EOF", err)
	}
	r.Close()
}

func TestBackwardWriterRejectsAscending(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewBackwardWriter(storage.NewRaw(fs), "b", 64, 3, codec.Record16{}, record.Less)
	w.Write(record.Record{Key: 5})
	if err := w.Write(record.Record{Key: 6}); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("ascending write = %v, want ErrOutOfOrder", err)
	}
}

func TestBackwardValidatesConfig(t *testing.T) {
	fs := vfs.NewMemFS()
	if _, err := NewBackwardWriter(storage.NewRaw(fs), "b", 63, 3, codec.Record16{}, record.Less); err == nil {
		t.Fatal("page size not multiple of record size should fail")
	}
	if _, err := NewBackwardWriter(storage.NewRaw(fs), "b", 64, 1, codec.Record16{}, record.Less); err == nil {
		t.Fatal("pagesPerFile < 2 should fail")
	}
}

func TestBackwardHeaderCorruptionDetected(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewBackwardWriter(storage.NewRaw(fs), "b", 64, 3, codec.Record16{}, record.Less)
	for i := 5; i >= 0; i-- {
		w.Write(record.Record{Key: int64(i)})
	}
	w.Close()
	// Smash the magic number.
	f, _ := fs.Open("b.0")
	// vfs.File opened via Open on MemFS shares data, so write through a
	// fresh create-less handle: MemFS Open returns a writable handle.
	if _, err := f.WriteAt([]byte{0, 0, 0, 0}, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, _ := NewBackwardReader(storage.NewRaw(fs), "b", 1, 0, codec.Record16{})
	if _, err := readOne(r); err == nil {
		t.Fatal("corrupt header should fail the read")
	}
	r.Close()
}

func TestBackwardLargeRandomDescending(t *testing.T) {
	fs := vfs.NewMemFS()
	rng := rand.New(rand.NewSource(11))
	keys := make([]int64, 5000)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 40)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] > keys[j] })
	w, _ := NewBackwardWriter(storage.NewRaw(fs), "b", 256, 5, codec.Record16{}, record.Less)
	for _, k := range keys {
		if err := w.Write(record.Record{Key: k}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, _ := NewBackwardReader(storage.NewRaw(fs), "b", w.Files(), 1024, codec.Record16{})
	got := readAllClosing(t, r)
	if len(got) != len(keys) {
		t.Fatalf("got %d records, want %d", len(got), len(keys))
	}
	if !record.IsSorted(got) {
		t.Fatal("not ascending")
	}
	want := record.NewMultiset(record.FromKeys()) // empty; rebuild below
	_ = want
	wantSet := make(map[int64]int)
	for _, k := range keys {
		wantSet[k]++
	}
	for _, rec := range got {
		wantSet[rec.Key]--
	}
	for k, n := range wantSet {
		if n != 0 {
			t.Fatalf("key %d count mismatch %d", k, n)
		}
	}
}

func TestRemoveBackward(t *testing.T) {
	fs := vfs.NewMemFS()
	w, _ := NewBackwardWriter(storage.NewRaw(fs), "b", 64, 3, codec.Record16{}, record.Less)
	for i := 20; i >= 0; i-- {
		w.Write(record.Record{Key: int64(i)})
	}
	w.Close()
	if err := w.Segment().Remove(storage.NewRaw(fs)); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.Names()
	if len(names) != 0 {
		t.Fatalf("files left after remove: %v", names)
	}
}

func TestRunConcatenatesSegments(t *testing.T) {
	fs := vfs.NewMemFS()
	// Build the four 2WRS streams of the §4.5 example shape:
	// stream4 desc {38,37,36}, stream3 asc {39,40}, stream2 desc {51,50},
	// stream1 asc {52,53,54}.
	w4, _ := NewBackwardWriter(storage.NewRaw(fs), "s4", 64, 3, codec.Record16{}, record.Less)
	for _, k := range []int64{38, 37, 36} {
		w4.Write(record.Record{Key: k})
	}
	w4.Close()
	writeForward(t, fs, "s3", []int64{39, 40})
	w2, _ := NewBackwardWriter(storage.NewRaw(fs), "s2", 64, 3, codec.Record16{}, record.Less)
	for _, k := range []int64{51, 50} {
		w2.Write(record.Record{Key: k})
	}
	w2.Close()
	writeForward(t, fs, "s1", []int64{52, 53, 54})

	run := Run{
		Segments: []Segment{
			{Name: "s4", Records: 3, Backward: true, Files: w4.Files()},
			{Name: "s3", Records: 2},
			{Name: "s2", Records: 2, Backward: true, Files: w2.Files()},
			{Name: "s1", Records: 3},
		},
		Records: 10,
	}
	run.Concatenable = true
	got := readAllClosing(t, openWhole(t, storage.NewRaw(fs), run, 256, codec.Record16{}))
	want := []int64{36, 37, 38, 39, 40, 50, 51, 52, 53, 54}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i, k := range want {
		if got[i].Key != k {
			t.Fatalf("record %d = %d, want %d", i, got[i].Key, k)
		}
	}
}

func TestRunSkipsEmptySegments(t *testing.T) {
	fs := vfs.NewMemFS()
	writeForward(t, fs, "s1", []int64{1, 2})
	run := Run{
		Segments: []Segment{
			{Name: "missing-backward", Records: 0, Backward: true},
			{Name: "s1", Records: 2},
			{Name: "missing-forward", Records: 0},
		},
		Records: 2,
	}
	got := readAllClosing(t, openWhole(t, storage.NewRaw(fs), run, 0, codec.Record16{}))
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
}

func TestRunRemove(t *testing.T) {
	fs := vfs.NewMemFS()
	writeForward(t, fs, "s1", []int64{1})
	w, _ := NewBackwardWriter(storage.NewRaw(fs), "s4", 64, 3, codec.Record16{}, record.Less)
	w.Write(record.Record{Key: 0})
	w.Close()
	run := Run{Segments: []Segment{
		{Name: "s4", Records: 1, Backward: true, Files: 1},
		{Name: "s1", Records: 1},
		{Name: "ghost", Records: 0}, // empty segments have no files
	}}
	if err := run.Remove(storage.NewRaw(fs)); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.Names()
	if len(names) != 0 {
		t.Fatalf("files left: %v", names)
	}
}

func TestSingleRun(t *testing.T) {
	run := SingleRun(Segment{Name: "x", Records: 42})
	if run.Records != 42 || len(run.Segments) != 1 || run.Segments[0].Name != "x" {
		t.Fatalf("SingleRun wrong: %+v", run)
	}
}

func TestNamerUniqueNames(t *testing.T) {
	nm := NewNamer("sort1")
	a := nm.Next("s1")
	b := nm.Next("s1")
	if a == b {
		t.Fatalf("namer returned duplicate %q", a)
	}
}

func TestReaderClosedSemantics(t *testing.T) {
	fs := vfs.NewMemFS()
	writeForward(t, fs, "r", []int64{1})
	r, _ := NewReader(storage.NewRaw(fs), "r", 0, codec.Record16{})
	r.Close()
	if _, err := readOne(r); err != stream.ErrClosed {
		t.Fatalf("read after close = %v, want ErrClosed", err)
	}
	if err := r.Close(); err != stream.ErrClosed {
		t.Fatalf("double close = %v, want ErrClosed", err)
	}
}

// drained is what reading a stream to its first error gave.
type drained[T any] struct {
	elems         []T
	err, closeErr error
}

// drain opens a run, reads its pieces one after the other to the first
// error through ReadBatch with buffers of the given length, holding every call
// to the batch contract, and closes them all.
func drain[T any](t *testing.T, open func() ([]*Reader[T], error), batch int) drained[T] {
	t.Helper()
	pieces, err := open()
	if err != nil {
		return drained[T]{err: err}
	}
	out := drained[T]{err: io.EOF}
	buf := make([]T, batch)
	for _, r := range pieces {
		for out.err == io.EOF {
			n, err := r.ReadBatch(buf)
			if (n > 0) == (err != nil) {
				t.Fatalf("batch=%d: ReadBatch returned %d, %v", batch, n, err)
			}
			out.elems = append(out.elems, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				out.err = err
			}
		}
		if err := r.Close(); err != nil && out.closeErr == nil {
			out.closeErr = err
		}
	}
	return out
}

// drainAtEveryLength requires ReadBatch, at awkward batch lengths, to deliver
// exactly what reading one element per call does: the same elements, then the
// same error on the call after the last of them.
func drainAtEveryLength[T comparable](t *testing.T, open func() ([]*Reader[T], error)) drained[T] {
	t.Helper()
	want := drain(t, open, 1)
	for _, batch := range []int{7, 256, 2048} {
		got := drain(t, open, batch)
		if !slices.Equal(got.elems, want.elems) || fmt.Sprint(got.err) != fmt.Sprint(want.err) || got.closeErr != want.closeErr {
			t.Fatalf("batch=%d: %d elements, then %v (close: %v); batches of one gave %d, then %v (close: %v)",
				batch, len(got.elems), got.err, got.closeErr, len(want.elems), want.err, want.closeErr)
		}
	}
	return want
}

// stringRun writes a run shaped like a 2WRS one — backward chain, forward
// file, backward chain, forward file, key ranges disjoint in that order —
// of n variable-width elements per segment on 64-byte pages, so elements
// span pages and chain files. It returns the run and its ascending contents.
func stringRun(t *testing.T, fs vfs.FS, n int) (Run, []string) {
	t.Helper()
	st := storage.NewRaw(fs)
	rng := rand.New(rand.NewSource(5))
	run := Run{Concatenable: true}
	var all []string
	for i, name := range []string{"s4", "s3", "s2", "s1"} {
		vals := randomStrings(n, rng)
		for j := range vals {
			vals[j] = string(rune('a'+i)) + vals[j]
		}
		sort.Strings(vals)
		all = append(all, vals...)
		seg := Segment{Name: name, Records: int64(n), Backward: i%2 == 0}
		var err error
		if seg.Backward {
			var w *BackwardWriter[string]
			if w, err = NewBackwardWriter(st, name, 64, 3, codec.String{}, lessStr); err == nil {
				slices.Reverse(vals)
				if err = w.WriteBatch(vals); err == nil {
					err = w.Close()
				}
				if seg.Files = w.Files(); seg.Files < 2 {
					t.Fatalf("segment %s is a %d-file chain, want several", name, seg.Files)
				}
			}
		} else {
			var w *Writer[string]
			if w, err = NewWriter(st, name, 64, codec.String{}, lessStr); err == nil {
				if err = w.WriteBatch(vals); err == nil {
					err = w.Close()
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		run.Segments = append(run.Segments, seg)
		run.Records += seg.Records
	}
	return run, all
}

// TestReadBatchAtEveryLength drives every reader — forward file, backward
// chain, whole runs as one piece and as a piece per segment — through
// ReadBatch with awkward batch sizes and requires the same result as one
// element per call.
func TestReadBatchAtEveryLength(t *testing.T) {
	fs := vfs.NewMemFS()
	st := storage.NewRaw(fs)
	// Forward run.
	fwdKeys := make([]int64, 1000)
	for i := range fwdKeys {
		fwdKeys[i] = int64(i * 3)
	}
	writeForward(t, fs, "bf", fwdKeys)
	// Backward chain spanning several files.
	wb, err := NewBackwardWriter(st, "bb", 64, 3, codec.Record16{}, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	for i := 500; i > 0; i-- {
		if err := wb.Write(record.Record{Key: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wb.Close(); err != nil {
		t.Fatal(err)
	}
	recRun := Run{
		Segments: []Segment{
			{Name: "bb", Records: 500, Backward: true, Files: wb.Files()},
			{Name: "bf", Records: 1000},
		},
		Records: 1500,
		// Ranges overlap (backward is 1..500, forward 0..2997): opened
		// non-concatenable it is one piece per segment.
	}
	for _, concat := range []bool{true, false} {
		recRun.Concatenable = concat
		got := drainAtEveryLength(t, func() ([]*Reader[record.Record], error) {
			return OpenRun(st, recRun, 256, codec.Record16{})
		})
		if len(got.elems) != 1500 || got.err != io.EOF || got.closeErr != nil {
			t.Fatalf("concat=%v: %d records, then %v (close: %v)", concat, len(got.elems), got.err, got.closeErr)
		}
	}

	// A whole variable-width run through a 7-byte buffer: elements span the
	// buffer, pages and chain files; concatenated it is one reader over
	// every file, otherwise one reader per segment.
	run, all := stringRun(t, fs, 150)
	for _, concat := range []bool{true, false} {
		run.Concatenable = concat
		got := drainAtEveryLength(t, func() ([]*Reader[string], error) {
			return OpenRun(st, run, 7, codec.String{})
		})
		if !slices.Equal(got.elems, all) || got.err != io.EOF || got.closeErr != nil {
			t.Fatalf("concat=%v: %d strings, then %v (close: %v); want the run's %d", concat, len(got.elems), got.err, got.closeErr, len(all))
		}
	}

	// A disk dying at every point of a small run: whatever decoded before
	// the n-th open, read or close comes out, then the fault, alike at every
	// batch length; a piece that fails to open closes the ones before it,
	// and no file is left open.
	smallFS := vfs.NewMemFS()
	small, smallAll := stringRun(t, smallFS, 12)
	for _, concat := range []bool{true, false} {
		small.Concatenable = concat
		for _, op := range []struct {
			name string
			op   faultfs.Op
		}{{"open", faultfs.Open}, {"read", faultfs.Read}, {"close", faultfs.Close}} {
			for n, fired := int64(1), true; fired; n++ {
				var fs *faultfs.FS
				got := drainAtEveryLength(t, func() ([]*Reader[string], error) {
					fs = faultfs.New(smallFS, faultfs.Options{})
					fs.Fail(op.op, n)
					return OpenRun(storage.NewRaw(fs), small, 7, codec.String{})
				})
				fired = fs.Calls(op.op) >= n
				if fired != (errors.Is(got.err, faultfs.ErrInjected) || got.closeErr == faultfs.ErrInjected) || fs.Handles() != 0 ||
					!fired && got.err != io.EOF || len(got.elems) > len(smallAll) || !slices.Equal(got.elems, smallAll[:len(got.elems)]) {
					t.Fatalf("concat=%v, %s %d: %d strings, then %v (close: %v), %d files open", concat, op.name, n, len(got.elems), got.err, got.closeErr, fs.Handles())
				}
			}
		}
	}

	// A forward segment cut mid-element ends there, the partial tail dropped.
	// Read on its own (OpenSegment) that is a clean end, for the caller to
	// count; read as part of a run, the piece knows how many records the
	// segment was to hold and fails where it ends, with an error matching
	// storage.ErrCorrupt that names it and both counts.
	var enc []byte
	for _, v := range []string{"bx1", "bx2", "bx3-cut-inside-this-one"} {
		enc = codec.String{}.Append(enc, v)
	}
	f, err := fs.Create("cut")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(enc[:len(enc)-3], 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	cutSeg := Segment{Name: "cut", Records: 3}
	alone := drain(t, func() ([]*Reader[string], error) {
		r, err := OpenSegment(st, cutSeg, 7, codec.String{})
		return []*Reader[string]{r}, err
	}, 7)
	if !slices.Equal(alone.elems, []string{"bx1", "bx2"}) || alone.err != io.EOF {
		t.Fatalf("truncated segment on its own: %v, then %v; want two strings and a clean end", alone.elems, alone.err)
	}
	cut := Run{Segments: []Segment{cutSeg, run.Segments[2], run.Segments[3]}, Concatenable: true}
	var got drained[string]
	for _, batch := range []int{1, 7, 2048} {
		got = drain(t, func() ([]*Reader[string], error) { return OpenRun(st, cut, 7, codec.String{}) }, batch)
		if want := []string{"bx1", "bx2"}; !slices.Equal(got.elems, want) || !errors.Is(got.err, storage.ErrCorrupt) {
			t.Fatalf("truncated segment: %d strings, then %v; want %d, then storage.ErrCorrupt", len(got.elems), got.err, len(want))
		}
		for _, part := range []string{"cut", "2 of its 3"} {
			if !strings.Contains(got.err.Error(), part) {
				t.Fatalf("truncated segment: %q does not mention %q", got.err, part)
			}
		}
	}

	// One buffer per run: read segment by segment, each of the four pays a
	// reader and a buffer; read as a run, they are paid once.
	run.Concatenable = true
	buf := make([]string, 256)
	readAll := func(r *Reader[string], err error) {
		for err == nil {
			_, err = r.ReadBatch(buf)
		}
		if err != io.EOF || r.Close() != nil {
			t.Fatal(err)
		}
	}
	bySegment := testing.AllocsPerRun(5, func() {
		for _, s := range run.Segments {
			readAll(OpenSegment(st, s, 4096, codec.String{}))
		}
	})
	whole := testing.AllocsPerRun(5, func() {
		readAll(openWhole(t, st, run, 4096, codec.String{}), nil)
	})
	if whole > bySegment-6 {
		t.Fatalf("reading the run costs %v allocations, its four segments one by one %v: want three readers and three buffers fewer", whole, bySegment)
	}
}

// fileBytes returns the whole of a file.
func fileBytes(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, _ := f.Size()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return buf
}

// writeChain stores vals, descending, as one chain stream of 64-byte pages
// through an emitter with Checksums on — element by element when split is
// 0, in batches of split otherwise — and returns every file stored and the
// stream's content sum.
func writeChain[T any](t *testing.T, pagesPerFile, split int, c codec.Codec[T], less func(a, b T) bool, vals []T) (map[string][]byte, uint64) {
	t.Helper()
	fs := vfs.NewMemFS()
	em := NewEmitterOn[T](storage.NewRaw(fs), "ch", c, less)
	em.PageSize, em.PagesPerFile, em.Checksums = 64, pagesPerFile, true
	w, err := em.Stream("s", true)
	for rest := vals; len(rest) > 0 && err == nil; {
		if split == 0 {
			err, rest = w.Write(rest[0]), rest[1:]
		} else {
			n := min(split, len(rest))
			err, rest = w.WriteBatch(rest[:n]), rest[n:]
		}
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	sum := w.Segment().Sum
	names, _ := fs.Names()
	files := make(map[string][]byte, len(names))
	for _, n := range names {
		files[n] = fileBytes(t, fs, n)
	}
	return files, sum
}

// TestWriteBatchMatchesWrite checks that batched writes produce
// byte-identical files to element writes, including page-flush boundaries:
// a forward run, and backward chains of fixed-width records and of strings
// that span pages and files — every batch length from one element to a
// page and one more, files of one and two data pages, with equal content
// sums.
func TestWriteBatchMatchesWrite(t *testing.T) {
	recs := make([]record.Record, 777)
	for i := range recs {
		recs[i] = record.Record{Key: int64(i), Aux: uint64(i * 2)}
	}
	fs := vfs.NewMemFS()
	writeForward(t, fs, "el", func() []int64 {
		keys := make([]int64, len(recs))
		for i, r := range recs {
			keys[i] = r.Key
		}
		return keys
	}())

	w, err := NewWriter(storage.NewRaw(fs), "ba", 64, codec.Record16{}, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(recs[:300]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(recs[300:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	a, b := fileBytes(t, fs, "el"), fileBytes(t, fs, "ba")
	if len(a) != len(b) {
		t.Fatalf("file sizes differ: %d vs %d", len(a), len(b))
	}
	// The Aux fields differ between the helpers, so compare structure by
	// re-reading rather than raw bytes.
	ra, _ := NewReader(storage.NewRaw(fs), "ba", 0, codec.Record16{})
	got := readAllClosing(t, ra)
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}

	slices.Reverse(recs)
	strs := make([]string, 300)
	for i := range strs {
		strs[i] = fmt.Sprintf("%04d%s", len(strs)-i, strings.Repeat("s", i%150))
	}
	const perPage = 64 / record.Size
	for _, pagesPerFile := range []int{2, 3} {
		wantRecs, recSum := writeChain(t, pagesPerFile, 0, codec.Record16{}, record.Less, recs)
		wantStrs, strSum := writeChain(t, pagesPerFile, 0, codec.String{}, func(a, b string) bool { return a < b }, strs)
		for split := 1; split <= perPage+1; split++ {
			gotRecs, sum := writeChain(t, pagesPerFile, split, codec.Record16{}, record.Less, recs)
			if !maps.EqualFunc(gotRecs, wantRecs, bytes.Equal) || sum != recSum {
				t.Fatalf("%d pages a file, batches of %d records: %d files and sum %#x, element writes %d and %#x", pagesPerFile, split, len(gotRecs), sum, len(wantRecs), recSum)
			}
			gotStrs, sum := writeChain(t, pagesPerFile, split, codec.String{}, func(a, b string) bool { return a < b }, strs)
			if !maps.EqualFunc(gotStrs, wantStrs, bytes.Equal) || sum != strSum {
				t.Fatalf("%d pages a file, batches of %d strings: %d files and sum %#x, element writes %d and %#x", pagesPerFile, split, len(gotStrs), sum, len(wantStrs), strSum)
			}
		}
	}
}

// TestWriteBatchRejectsOutOfOrder mirrors the element-path validation.
func TestWriteBatchRejectsOutOfOrder(t *testing.T) {
	fs := vfs.NewMemFS()
	w, err := NewWriter(storage.NewRaw(fs), "oo", 0, codec.Record16{}, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	err = w.WriteBatch([]record.Record{{Key: 5}, {Key: 4}})
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
	w.Close()
}

// TestElementPathDoesNotAllocate pins the cost of the one-element call that
// is left beside the bulk kernels — run generators write an element at a
// time: Write's argument never passes through the codec's bulk interface,
// where it would have to be a slice and escape to the heap once per element.
func TestElementPathDoesNotAllocate(t *testing.T) {
	st := storage.NewRaw(vfs.NewMemFS())
	w, err := NewWriter[record.Record](st, "run", 0, codec.Record16{}, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	key := int64(0)
	if n := testing.AllocsPerRun(5000, func() {
		key++
		if err := w.Write(record.Record{Key: key}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Write allocates %v times per element", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

var errInjected = errors.New("injected fault")

// failingWrites fails the n-th call of one kind — "create" or "close" of
// either kind of file, "append" on a forward file, "pages", "tail" or
// "header" on a chain file — made through it for writing, and counts the
// handles left open. It wraps the backend, not the file system: WritePage,
// WriteTail and WriteHeader are not one file operation each.
type failingWrites struct {
	storage.Backend
	op      string
	n, seen int
	open    int
}

func (b *failingWrites) hit(op string) error {
	if op == b.op {
		if b.seen++; b.seen == b.n {
			return errInjected
		}
	}
	return nil
}

func (b *failingWrites) Create(name string) (storage.BlockWriter, error) {
	if err := b.hit("create"); err != nil {
		return nil, err
	}
	w, err := b.Backend.Create(name)
	if err == nil {
		b.open++
	}
	return failingWriter{w, b}, err
}

type failingWriter struct {
	storage.BlockWriter
	b *failingWrites
}

func (w failingWriter) Append(p []byte) error {
	if err := w.b.hit("append"); err != nil {
		return err
	}
	return w.BlockWriter.Append(p)
}

func (w failingWriter) Close() error {
	w.b.open--
	err := w.b.hit("close")
	if cerr := w.BlockWriter.Close(); err == nil {
		err = cerr
	}
	return err
}

func (b *failingWrites) CreatePaged(name string, pageSize, pages int) (storage.PageWriter, error) {
	if err := b.hit("create"); err != nil {
		return nil, err
	}
	w, err := b.Backend.CreatePaged(name, pageSize, pages)
	if err == nil {
		b.open++
	}
	return failingPages{w, b}, err
}

type failingPages struct {
	storage.PageWriter
	b *failingWrites
}

func (w failingPages) WritePage(idx int, pages []byte) error {
	if err := w.b.hit("pages"); err != nil {
		return err
	}
	return w.PageWriter.WritePage(idx, pages)
}

func (w failingPages) WriteTail(idx int, payload []byte) (int, error) {
	if err := w.b.hit("tail"); err != nil {
		return 0, err
	}
	return w.PageWriter.WriteTail(idx, payload)
}

func (w failingPages) WriteHeader(hdr []byte) error {
	if err := w.b.hit("header"); err != nil {
		return err
	}
	return w.PageWriter.WriteHeader(hdr)
}

func (w failingPages) Close() error {
	w.b.open--
	err := w.b.hit("close")
	if cerr := w.PageWriter.Close(); err == nil {
		err = cerr
	}
	return err
}

// TestChainWriterClosesFileItCouldNotFinish fails the writes that complete
// a chain file — the partial tail page and the header — once when Close
// makes them and once when a full file rolls over mid-stream and the
// generator then abandons the writer to AbortOpen; it fails a block's page
// run and the next file's create the same way, and abandons a chain with no
// fault in the middle of a block. Before Close or AbortOpen exactly the
// handles of the case are open and an abandoned stream's writes have
// returned the injected error; afterwards the error has surfaced, every
// chain file's handle is closed, and the stream is no longer live.
func TestChainWriterClosesFileItCouldNotFinish(t *testing.T) {
	for _, tc := range []struct {
		op      string
		n       int // fail the op's n-th call
		records int // 4 to a page, 2 data pages (one block) to a file
		abandon bool
		held    int // handles open once the writes have returned
	}{
		{op: "tail", n: 1, records: 5, held: 1},
		{op: "header", n: 1, records: 5, held: 1},
		{op: "header", n: 1, records: 8, abandon: true, held: 1},
		{op: "pages", n: 1, records: 8, abandon: true, held: 1},
		{op: "create", n: 2, records: 9, abandon: true},
		{op: "none", records: 6, abandon: true, held: 1},
	} {
		st := &failingWrites{Backend: storage.NewRaw(vfs.NewMemFS()), op: tc.op, n: tc.n}
		em := NewEmitterOn[record.Record](st, "cw", codec.Record16{}, record.Less)
		em.PageSize, em.PagesPerFile = 64, 3
		w, err := em.Stream("s4", true)
		if err != nil {
			t.Fatal(err)
		}
		for i := tc.records; i > 0 && err == nil; i-- {
			err = w.Write(record.Record{Key: int64(i)})
		}
		if st.open != tc.held || tc.abandon && errors.Is(err, errInjected) != (tc.n > 0) {
			t.Fatalf("%+v: the writes returned %v with %d handles open", tc, err, st.open)
		}
		if tc.abandon {
			em.AbortOpen()
		} else if cerr := w.Close(); err == nil {
			err = cerr
		}
		if errors.Is(err, errInjected) != (tc.n > 0) || tc.n == 0 && err != nil {
			t.Fatalf("%+v: the writes and Close returned %v", tc, err)
		}
		if st.open != 0 || len(em.open) != 0 {
			t.Fatalf("%+v: %d handles open and %d streams live afterwards", tc, st.open, len(em.open))
		}
	}
}

// TestRemoveCarriesOnPastAFailure removes a run whose first file (in read
// order) cannot be removed and whose last is already gone: every other
// file goes, and the failure — not the missing file — is the error.
func TestRemoveCarriesOnPastAFailure(t *testing.T) {
	fs := vfs.NewMemFS()
	st := storage.NewRaw(fs)
	w, _ := NewBackwardWriter(st, "b", 64, 3, codec.Record16{}, record.Less)
	for i := 30; i > 0; i-- {
		w.Write(record.Record{Key: int64(i)})
	}
	if err := w.Close(); err != nil || w.Files() != 4 {
		t.Fatalf("chain of %d files, err %v; want 4", w.Files(), err)
	}
	writeForward(t, fs, "f", []int64{1})
	run := Run{Segments: []Segment{w.Segment(), {Name: "f", Records: 1}, {Name: "gone", Records: 1}}}
	gone := faultfs.New(fs, faultfs.Options{Match: func(name string, _ int64) bool { return name == "b.3" }})
	gone.Fail(faultfs.Remove, 1)
	if err := run.Remove(storage.NewRaw(gone)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Remove returned %v, want the injected failure", err)
	}
	if names, _ := fs.Names(); !slices.Equal(names, []string{"b.3"}) {
		t.Fatalf("files left: %v, want only the one that could not go", names)
	}
	if err := run.Remove(st); err != nil {
		t.Fatalf("removing what is left, most of it already gone: %v", err)
	}
}

// TestWriterSurfacesFileFault fails each kind of file operation at each
// position of a three-stream sequence of the generation pass — forward
// files, and chains of two full files and a third with a partial tail. The
// writer call that performs the failing operation returns the injected
// error and every call before it returns nil; once that stream is closed,
// no handle is open and no stream is live.
func TestWriterSurfacesFileFault(t *testing.T) {
	for _, chain := range []bool{false, true} {
		ops := []string{"create", "append", "close"}
		if chain {
			ops = []string{"create", "pages", "tail", "header", "close"}
		}
		for _, op := range ops {
			for n := 1; n <= 3; n++ {
				name := fmt.Sprintf("chain %v, %s %d", chain, op, n)
				st := &failingWrites{Backend: storage.NewRaw(vfs.NewMemFS()), op: op, n: n}
				em := NewEmitterOn[record.Record](st, "wb", codec.Record16{}, record.Less)
				em.PageSize, em.PagesPerFile = 64, 3
				// met reports whether the call that returned err performed
				// the failing operation, and fails the test unless it
				// returned exactly the injected error then and nil before.
				met := func(err error) bool {
					hit := st.seen >= n
					if hit != (err != nil) || hit && !errors.Is(err, errInjected) {
						t.Fatalf("%s: a writer call returned %v after %d calls of the operation", name, err, st.seen)
					}
					return hit
				}
				failed := false
				for f := 0; f < 3 && !failed; f++ {
					w, err := em.Stream("s", chain)
					if failed = met(err); failed {
						break
					}
					// Four one-page blocks forward; two chain files of two
					// pages of four, and two records more.
					records := 4 * DefaultPageSize / record.Size
					if chain {
						records = 18
					}
					for i := 0; i < records && !failed; i++ {
						key := int64(i)
						if chain {
							key = int64(records - i)
						}
						failed = met(w.Write(record.Record{Key: key}))
					}
					if failed {
						w.Close()
					} else {
						failed = met(w.Close())
					}
				}
				if !failed {
					t.Fatalf("%s: no writer call met the fault", name)
				}
				if st.open != 0 || len(em.open) != 0 {
					t.Fatalf("%s: %d file handles open and %d streams live", name, st.open, len(em.open))
				}
			}
		}
	}
}

// TestSiblingCarriesEverySetting gives every exported field of an emitter a
// value and checks that a sibling carries each one but the namer, which is
// its own at the new prefix, and shares none of the original's open streams.
// A field added to Emitter fails the first check until this test sets it.
func TestSiblingCarriesEverySetting(t *testing.T) {
	less := func(a, b int64) bool { return a < b }
	em := NewEmitter[int64](vfs.NewMemFS(), "sort", codec.Int64{}, less)
	em.PageSize, em.PagesPerFile, em.Block = 128, 5, 4096
	em.KeyCodec, em.Checksums, em.Scratch = codec.KeyInt64{}, true, new(codec.Scratch[int64])
	v := reflect.ValueOf(em).Elem()
	for i := range v.NumField() {
		if f := v.Type().Field(i); f.IsExported() && v.Field(i).IsZero() {
			t.Fatalf("Emitter.%s is not set by this test", f.Name)
		}
	}
	w, err := em.Stream("fwd", false)
	if err != nil {
		t.Fatal(err)
	}
	sib := em.Sibling("sort-l1")
	sv := reflect.ValueOf(sib).Elem()
	for i := range v.NumField() {
		f := v.Type().Field(i)
		if !f.IsExported() || f.Name == "Namer" {
			continue
		}
		a, b := v.Field(i), sv.Field(i)
		if same := a.Kind() == reflect.Func && a.Pointer() == b.Pointer() || reflect.DeepEqual(a.Interface(), b.Interface()); !same {
			t.Errorf("the sibling's %s differs from the emitter's", f.Name)
		}
	}
	if got := sib.Namer.Next("run"); got != "sort-l1-0001-run" {
		t.Errorf("the sibling names its first file %q, want sort-l1-0001-run", got)
	}
	if got := em.Namer.Next("run"); got != "sort-0002-run" {
		t.Errorf("the emitter names its second file %q after the sibling named one, want sort-0002-run", got)
	}
	sib.AbortOpen()
	if err := w.Write(1); err != nil {
		t.Fatalf("the sibling aborted the emitter's stream: %v", err)
	}
	if len(em.open) != 1 || len(sib.open) != 0 {
		t.Fatalf("%d streams open on the emitter and %d on the sibling, want 1 and 0", len(em.open), len(sib.open))
	}
	em.AbortOpen()
}
