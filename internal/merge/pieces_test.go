package merge

import (
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// TestOverlapRunsMergeOnKeys: a run whose stream ranges overlap is merged by
// the operation's own tree, a leaf per segment, keyed like every other leaf —
// so under a total key codec of at most eight bytes merging non-concatenable
// runs calls the comparator not once. (When a run interleaved its own
// segments first, that inner merge compared every element it passed on.)
// Three runs under a fan-in of four are one final merge into memory: no run
// writer checks order on the way.
func TestOverlapRunsMergeOnKeys(t *testing.T) {
	var calls atomic.Int64
	less := func(a, b int64) bool {
		calls.Add(1)
		return a < b
	}
	em := runio.NewEmitter[int64](vfs.NewMemFS(), "m", codec.Int64{}, less)
	em.KeyCodec = codec.KeyInt64{}
	em.PageSize, em.PagesPerFile = 256, 4
	var runs []runio.Run
	var want []int64
	for r := 0; r < 3; r++ {
		var run runio.Run
		for s := 0; s < 4; s++ {
			part := make([]int64, 700+100*s)
			for i := range part {
				part[i] = int64((i*4+s)*3 + r) // every segment spans the run's whole range
			}
			want = append(want, part...)
			descending := s%2 == 0
			if descending {
				slices.Reverse(part)
			}
			w, err := em.Stream(fmt.Sprintf("s%d", 4-s), descending)
			if err == nil {
				if err = w.WriteBatch(part); err == nil {
					err = w.Close()
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			run.Segments = append(run.Segments, w.Segment())
			run.Records += int64(len(part))
		}
		runs = append(runs, run)
	}
	slices.Sort(want)
	calls.Store(0)
	var out sliceWriter[int64]
	stats, err := Merge(em, runs, &out, Config{FanIn: 4, MemoryBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inputs != 3 || stats.Merges != 1 {
		t.Fatalf("stats %+v: an overlap run is one input of the plan however many leaves it opens as", stats)
	}
	if !slices.Equal(out.vals, want) {
		t.Fatalf("merged %d elements, want the %d of the runs in order", len(out.vals), len(want))
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("merging overlap runs under a total 8-byte key called the comparator %d times, want 0", n)
	}
}

// sliceWriter collects what a merge writes.
type sliceWriter[T any] struct{ vals []T }

func (w *sliceWriter[T]) Write(v T) error          { w.vals = append(w.vals, v); return nil }
func (w *sliceWriter[T]) WriteBatch(src []T) error { w.vals = append(w.vals, src...); return nil }

// checkSegments is checkRagged for the leaves the merge really has: the runs
// become the segments of one spilled run whose ranges overlap — backward
// chains and forward files alternating, over small pages so that chains span
// files — and openMerged makes each a leaf of the tree kc selects. Drained
// through ragged dst lengths the tree must deliver want's order. failing,
// when it names a non-empty run, damages that segment first — its first file
// removed (a piece that cannot be opened, or fails as the tree primes it)
// when maxBatch is odd, cut to half otherwise (a piece that fails part-way) —
// and the merge must then end in an error, never cleanly, having delivered
// nothing out of order and nothing the runs do not hold. Whatever happened,
// every file handle is closed again.
func checkSegments(t *testing.T, what string, runs [][]record.Record, want []record.Record, less func(a, b record.Record) bool, kc codec.KeyCodec[record.Record], maxBatch, failing int) {
	t.Helper()
	mem := vfs.NewMemFS()
	fs := faultfs.New(mem, faultfs.Options{})
	em := runio.NewEmitter[record.Record](fs, "f", codec.Record16{}, less)
	em.KeyCodec = kc
	em.PageSize, em.PagesPerFile = 64, 3
	var run runio.Run
	damaged := false
	for i, part := range runs {
		if len(part) == 0 {
			run.Segments = append(run.Segments, runio.Segment{})
			continue
		}
		descending := i%2 == 0
		part = slices.Clone(part)
		if descending {
			slices.Reverse(part)
		}
		w, err := em.Stream(fmt.Sprintf("p%d", i), descending)
		if err == nil {
			if err = w.WriteBatch(part); err == nil {
				err = w.Close()
			}
		}
		if err != nil {
			t.Fatalf("%s: writing segment %d: %v", what, i, err)
		}
		seg := w.Segment()
		run.Segments = append(run.Segments, seg)
		run.Records += seg.Records
		if i != failing {
			continue
		}
		damaged = true
		first := ""
		seg.EachFile(func(name string, _ int) {
			if first == "" {
				first = name
			}
		})
		if maxBatch%2 == 1 {
			mem.Remove(first)
			continue
		}
		f, _ := mem.Open(first)
		size, _ := f.Size()
		half := make([]byte, size/2)
		f.ReadAt(half, 0)
		f.Close()
		f, _ = mem.Create(first)
		f.WriteAt(half, 0)
		f.Close()
	}
	what = fmt.Sprintf("%s, %d segments on disk, damaged=%v (segment %d, longest batch %d)", what, len(runs), damaged, failing, maxBatch)
	var got []record.Record
	eng, err := openMerged(em, new(leafArena[record.Record]), []runio.Run{run}, 0)
	if err == nil {
		dst := make([]record.Record, 2*leafBatch+3)
		for calls := 1; err == nil; calls++ {
			var n int
			n, err = eng.ReadBatch(dst[:calls*37%len(dst)])
			if n > 0 && err != nil {
				t.Fatalf("%s: ReadBatch returned %d elements with %v", what, n, err)
			}
			got = append(got, dst[:n]...)
		}
		if cerr := eng.Close(); cerr != nil {
			t.Fatalf("%s: Close: %v", what, cerr)
		}
	}
	if n := fs.Handles(); n != 0 {
		t.Fatalf("%s: %d file handles still open after %v", what, n, err)
	}
	if !damaged {
		if err != io.EOF {
			t.Fatalf("%s: %v after %d elements of %d", what, err, len(got), len(want))
		}
		sameOrder(t, what, got, want, less)
		if !record.NewMultiset(got).Equal(record.NewMultiset(want)) {
			t.Fatalf("%s: the merged segments are not the runs' records", what)
		}
		return
	}
	if err == io.EOF || len(got) >= len(want) {
		t.Fatalf("%s: %d of %d elements, then %v; want an error before the end", what, len(got), len(want), err)
	}
	held := record.NewMultiset(want)
	for i, r := range got {
		if held[r]--; held[r] < 0 || i > 0 && less(r, got[i-1]) {
			t.Fatalf("%s: element %d = %v is out of order or not the runs'", what, i, r)
		}
	}
}
