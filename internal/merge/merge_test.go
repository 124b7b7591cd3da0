package merge

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// sliceSource adapts a slice to the Source interface.
type sliceSource struct {
	*stream.SliceReader[record.Record]
	closed bool
}

func (s *sliceSource) Close() error {
	s.closed = true
	return nil
}

func srcOf(keys ...int64) *sliceSource {
	return &sliceSource{SliceReader: stream.NewSliceReader(record.FromKeys(keys...))}
}

func drain(t *testing.T, s Source[record.Record]) []int64 {
	t.Helper()
	var keys []int64
	for _, rec := range drainAll(t, s) {
		keys = append(keys, rec.Key)
	}
	return keys
}

func TestLoserTreeThreeWayExample(t *testing.T) {
	// The 3-way merge example of §2.1 (Figures 2.1-2.3).
	srcs := []Source[record.Record]{
		srcOf(2, 8, 12, 16),
		srcOf(3, 13, 14, 17),
		srcOf(1, 7, 9, 18),
	}
	lt, err := NewLoserTree(srcs, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, lt)
	want := []int64{1, 2, 3, 7, 8, 9, 12, 13, 14, 16, 17, 18}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if err := lt.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMergersRandomizedAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		k := 1 + rng.Intn(9)
		var all []int64
		build := func() []Source[record.Record] {
			srcs := make([]Source[record.Record], k)
			// Rebuild identical sources for each engine.
			r2 := rand.New(rand.NewSource(int64(trial)))
			all = all[:0]
			for i := 0; i < k; i++ {
				n := r2.Intn(50)
				keys := make([]int64, n)
				for j := range keys {
					keys[j] = r2.Int63n(1000)
				}
				sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
				all = append(all, keys...)
				srcs[i] = srcOf(keys...)
			}
			return srcs
		}

		hm, err := NewHeapMerger(build(), record.Less)
		if err != nil {
			t.Fatal(err)
		}
		gotHM := drain(t, hm)
		hm.Close()
		want := slices.Clone(all) // build refills all
		slices.Sort(want)
		if !slices.Equal(gotHM, want) {
			t.Fatalf("trial %d: heap merger disagrees with slices.Sort", trial)
		}

		for _, sh := range recordShapes {
			lt, err := newTree(build(), record.Less, sh.kc)
			if err != nil {
				t.Fatal(err)
			}
			gotLT := drain(t, lt)
			lt.Close()
			if !slices.Equal(gotLT, want) {
				t.Fatalf("trial %d: %s loser tree disagrees with slices.Sort", trial, sh.name)
			}
		}
	}
}

func TestMergersEmptyAndSingle(t *testing.T) {
	lt, err := NewLoserTree(nil, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readOne(lt); err != io.EOF {
		t.Fatalf("empty loser tree read = %v, want io.EOF", err)
	}
	lt.Close()

	lt2, _ := NewLoserTree([]Source[record.Record]{srcOf(), srcOf(5), srcOf()}, record.Less)
	got := drain(t, lt2)
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("got %v, want [5]", got)
	}
	lt2.Close()

	hm, _ := NewHeapMerger([]Source[record.Record]{srcOf()}, record.Less)
	if _, err := readOne(hm); err != io.EOF {
		t.Fatalf("heap merger over empty source = %v, want io.EOF", err)
	}
	hm.Close()
}

func TestMergersDuplicateKeys(t *testing.T) {
	for _, sh := range recordShapes {
		srcs := []Source[record.Record]{srcOf(1, 1, 1), srcOf(1, 1), srcOf(1)}
		lt, _ := newTree(srcs, record.Less, sh.kc)
		got := drain(t, lt)
		if len(got) != 6 {
			t.Fatalf("%s: got %d records, want 6", sh.name, len(got))
		}
		lt.Close()
	}
}

func TestReadAfterClose(t *testing.T) {
	for _, sh := range recordShapes {
		lt, _ := newTree([]Source[record.Record]{srcOf(1)}, record.Less, sh.kc)
		lt.Close()
		if _, err := readOne(lt); err != stream.ErrClosed {
			t.Fatalf("%s: read after close = %v, want ErrClosed", sh.name, err)
		}
		if n, err := lt.ReadBatch(make([]record.Record, 2)); n != 0 || err != stream.ErrClosed {
			t.Fatalf("%s: batch read after close = %d, %v, want ErrClosed", sh.name, n, err)
		}
		if err := lt.Close(); err != stream.ErrClosed {
			t.Fatalf("%s: double close = %v, want ErrClosed", sh.name, err)
		}
	}
	hm, _ := NewHeapMerger([]Source[record.Record]{srcOf(1)}, record.Less)
	hm.Close()
	if _, err := readOne(hm); err != stream.ErrClosed {
		t.Fatalf("heap read after close = %v, want ErrClosed", err)
	}
}

// makeRuns writes n runs of the given length onto fs.
func makeRuns(t *testing.T, fs vfs.FS, em *runio.Emitter[record.Record], n, length int, seed int64) ([]runio.Run, []record.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var runs []runio.Run
	var all []record.Record
	for i := 0; i < n; i++ {
		keys := make([]int64, length)
		for j := range keys {
			keys[j] = rng.Int63n(1 << 30)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		w, err := em.Stream("run", false)
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range keys {
			rec := record.Record{Key: k, Aux: uint64(i*length + j)}
			all = append(all, rec)
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, runio.SingleRun(w.Segment()))
	}
	return runs, all
}

// makeOverlapRuns writes n runs laid out as 2WRS lays one out — a backward
// chain, a forward file, a backward chain, a forward file — of length records
// per segment, each segment a sorted quarter of the run's random keys, so the
// four ranges overlap end to end and the run is not concatenable: it opens as
// four pieces.
func makeOverlapRuns(t *testing.T, em *runio.Emitter[record.Record], n, length int, seed int64) ([]runio.Run, []record.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var runs []runio.Run
	var all []record.Record
	for i := 0; i < n; i++ {
		run := runio.Run{}
		for s := 0; s < 4; s++ {
			part := make([]record.Record, length)
			for j := range part {
				part[j] = record.Record{Key: rng.Int63n(1 << 30), Aux: uint64(len(all) + j)}
			}
			all = append(all, part...)
			descending := s%2 == 0
			sort.Slice(part, func(a, b int) bool {
				if descending {
					return part[a].Key > part[b].Key
				}
				return part[a].Key < part[b].Key
			})
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
			run.Records += w.Segment().Records
		}
		runs = append(runs, run)
	}
	return runs, all
}

func TestMergeSinglePass(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	runs, all := makeRuns(t, fs, em, 5, 100, 1)
	var out stream.SliceWriter[record.Record]
	stats, err := Merge(em, runs, &out, Config{FanIn: 10, MemoryBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Passes != 1 || stats.Merges != 1 || stats.Inputs != 5 {
		t.Fatalf("stats = %+v, want single pass", stats)
	}
	if stats.RecordsMoved != 0 {
		t.Fatalf("single pass should not move records through intermediates, moved %d", stats.RecordsMoved)
	}
	if !record.IsSorted(out.Vals) {
		t.Fatal("merged output not sorted")
	}
	if !record.NewMultiset(out.Vals).Equal(record.NewMultiset(all)) {
		t.Fatal("merge lost records")
	}
	// All run files must be deleted after the merge.
	names, _ := fs.Names()
	if len(names) != 0 {
		t.Fatalf("files left after merge: %v", names)
	}
}

func TestMergeMultiPass(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	runs, all := makeRuns(t, fs, em, 23, 50, 2)
	var out stream.SliceWriter[record.Record]
	stats, err := Merge(em, runs, &out, Config{FanIn: 3, MemoryBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	// 23 runs at fan-in 3: 23 -> 8 -> 3 -> 1, i.e. 3 passes.
	if stats.Passes != 3 {
		t.Fatalf("passes = %d, want 3", stats.Passes)
	}
	if !record.IsSorted(out.Vals) || len(out.Vals) != len(all) {
		t.Fatal("multi-pass merge output wrong")
	}
	if !record.NewMultiset(out.Vals).Equal(record.NewMultiset(all)) {
		t.Fatal("multi-pass merge lost records")
	}
	names, _ := fs.Names()
	if len(names) != 0 {
		t.Fatalf("files left after merge: %v", names)
	}
}

func TestMergeSingleRunPassThrough(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	runs, all := makeRuns(t, fs, em, 1, 64, 3)
	var out stream.SliceWriter[record.Record]
	stats, err := Merge(em, runs, &out, Config{FanIn: 10, MemoryBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Passes != 0 || stats.Merges != 0 {
		t.Fatalf("single run should stream through, stats = %+v", stats)
	}
	if len(out.Vals) != len(all) {
		t.Fatal("records lost")
	}
}

func TestMergeNoInputs(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	var out stream.SliceWriter[record.Record]
	stats, err := Merge(em, nil, &out, Config{FanIn: 4, MemoryBytes: 4096})
	if err != nil || stats.Inputs != 0 || len(out.Vals) != 0 {
		t.Fatalf("empty merge = (%+v, %v)", stats, err)
	}
}

func TestMergeRejectsBadFanIn(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	var out stream.SliceWriter[record.Record]
	if _, err := Merge(em, nil, &out, Config{FanIn: 1}); err == nil {
		t.Fatal("fan-in 1 should be rejected")
	}
}

// TestMergeHeapEngine holds the production merge to the reference engine:
// a HeapMerger over the same spilled runs reads back exactly what Merge
// writes, whichever shape of the tree the emitter's key codec selects.
func TestMergeHeapEngine(t *testing.T) {
	for _, sh := range recordShapes {
		testMergeHeapEngine(t, sh.kc)
	}
}

func testMergeHeapEngine(t *testing.T, kc codec.KeyCodec[record.Record]) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	em.KeyCodec = kc
	runs, all := makeRuns(t, fs, em, 7, 40, 4)
	var srcs []Source[record.Record]
	for _, run := range runs {
		pieces, err := em.Open(run, 4096)
		if err != nil {
			t.Fatal(err)
		}
		for _, piece := range pieces {
			srcs = append(srcs, piece)
		}
	}
	hm, err := NewHeapMerger(srcs, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stream.ReadAllCancel[record.Record](hm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hm.Close(); err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(want) || len(want) != len(all) {
		t.Fatal("heap engine merge wrong")
	}
	var out stream.SliceWriter[record.Record]
	if _, err := Merge(em, runs, &out, Config{FanIn: 3, MemoryBytes: 8192}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out.Vals, want) {
		t.Fatal("Merge disagrees with the heap engine")
	}
}

func TestMergeParallelWorkers(t *testing.T) {
	var one Stats
	var oneRaw int64
	for _, workers := range []int{1, 2, 4, 8} {
		fs := vfs.NewMemFS()
		em := runio.RecordEmitter(fs, "m")
		runs, all := makeRuns(t, fs, em, 37, 40, 8)
		written := em.Store.Stats().RawBytesWritten
		var out stream.SliceWriter[record.Record]
		// 2^17 bytes feed eight 3-way operations at a page a block.
		stats, err := Merge(em, runs, &out, Config{FanIn: 3, MemoryBytes: 1 << 17, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !record.IsSorted(out.Vals) || len(out.Vals) != len(all) {
			t.Fatalf("workers %d: parallel merge output wrong", workers)
		}
		if !record.NewMultiset(out.Vals).Equal(record.NewMultiset(all)) {
			t.Fatalf("workers %d: parallel merge lost records", workers)
		}
		// 37 runs at fan-in 3 take 18 merge operations: every merge removes
		// width-1 runs, the first is width-aligned, and the final 3-way
		// streams to the destination.
		if stats.Merges != 18 {
			t.Fatalf("workers %d: merges = %d, want 18", workers, stats.Merges)
		}
		// The plan, and so the merge half of the statistics and the bytes
		// written, is the same whatever executes it.
		raw := em.Store.Stats().RawBytesWritten - written
		if workers == 1 {
			one, oneRaw = stats, raw
		} else if stats != one || raw != oneRaw {
			t.Fatalf("workers %d: %+v and %d raw bytes written, one worker %+v and %d", workers, stats, raw, one, oneRaw)
		}
		names, _ := fs.Names()
		if len(names) != 0 {
			t.Fatalf("workers %d: files left after merge: %v", workers, names)
		}
	}
}

// cancelNow is a Cancel hook that trips after a fixed number of polls.
// Parallel merge workers poll it concurrently, as Config.Cancel allows.
type cancelNow struct {
	polls atomic.Int64
	after int64
	err   error
}

func (c *cancelNow) hook() error {
	if c.polls.Add(1) > c.after {
		return c.err
	}
	return nil
}

func TestMergeCancelAborts(t *testing.T) {
	for _, workers := range []int{1, 4} {
		fs := vfs.NewMemFS()
		em := runio.RecordEmitter(fs, "m")
		runs, _ := makeRuns(t, fs, em, 23, 50, 5)
		cn := &cancelNow{after: 3, err: io.ErrClosedPipe}
		var out stream.SliceWriter[record.Record]
		_, err := Merge(em, runs, &out, Config{
			FanIn: 3, MemoryBytes: 1 << 16, Workers: workers, Cancel: cn.hook,
		})
		if err != io.ErrClosedPipe {
			t.Fatalf("workers %d: err = %v, want the cancel error", workers, err)
		}
	}
}

// TestNewStreamMatchesMerge pins the streaming view against the
// materialising Merge: identical order, identical stats, identical file
// cleanup once the Stream is closed.
func TestNewStreamMatchesMerge(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	runs, all := makeRuns(t, fs, em, 23, 50, 9)
	st, err := NewStream(em, runs, Config{FanIn: 3, MemoryBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	got, err := stream.ReadAllCancel[record.Record](st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(got) {
		t.Fatal("streamed merge not sorted")
	}
	if !record.NewMultiset(got).Equal(record.NewMultiset(all)) {
		t.Fatal("streamed merge lost records")
	}
	ms := st.Stats()
	if ms.Inputs != 23 || ms.Passes < 2 || ms.Merges < 2 {
		t.Fatalf("stream stats %+v, want a genuine multi-pass merge", ms)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.Names()
	if len(names) != 0 {
		t.Fatalf("files left after close: %v", names)
	}
	if _, err := readOne(st); err != stream.ErrClosed {
		t.Fatalf("read after close: %v, want ErrClosed", err)
	}
}

// TestStreamPartialDrainCleansUp abandons a stream after a few elements:
// Close must still delete every remaining run file — that early abandonment
// is exactly how TopK skips the tail of the final merge.
func TestStreamPartialDrainCleansUp(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	runs, all := makeRuns(t, fs, em, 7, 200, 10)
	st, err := NewStream(em, runs, Config{FanIn: 10, MemoryBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]record.Record(nil), all...)
	sort.Slice(want, func(i, j int) bool { return record.Less(want[i], want[j]) })
	for i := 0; i < 5; i++ {
		got, err := readOne(st)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != want[i].Key {
			t.Fatalf("element %d: key %d, want %d", i, got.Key, want[i].Key)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.Names()
	if len(names) != 0 {
		t.Fatalf("files left after partial drain: %v", names)
	}
}

// TestStreamEmptyAndCancel covers the empty input stream and mid-stream
// cancellation through the batch path.
func TestStreamEmptyAndCancel(t *testing.T) {
	fs := vfs.NewMemFS()
	em := runio.RecordEmitter(fs, "m")
	st, err := NewStream(em, nil, Config{FanIn: 4, MemoryBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readOne(st); err != io.EOF {
		t.Fatalf("empty stream Read = %v, want EOF", err)
	}
	if n, err := st.ReadBatch(make([]record.Record, 4)); n != 0 || err != io.EOF {
		t.Fatalf("empty stream ReadBatch = %d, %v, want EOF", n, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	runs, _ := makeRuns(t, fs, em, 3, 100, 11)
	cn := &cancelNow{after: 1, err: io.ErrClosedPipe}
	st, err = NewStream(em, runs, Config{FanIn: 4, MemoryBytes: 4096, Cancel: cn.hook})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]record.Record, 8)
	if _, err := st.ReadBatch(buf); err != nil {
		t.Fatalf("first batch should pass, got %v", err)
	}
	if _, err := st.ReadBatch(buf); err != io.ErrClosedPipe {
		t.Fatalf("second batch = %v, want the cancel error", err)
	}
	st.Close()
}

// TestMergeStopsPassOnFailure holds the worker pool to stopping a pass at
// its first failed merge: each merge creates one output file, and with the
// disk dead from the first create of a 30-merge pass on, a worker that
// meets the failure claims nothing more, so every worker fails at most one
// create.
func TestMergeStopsPassOnFailure(t *testing.T) {
	const workers = 2
	fs := faultfs.New(vfs.NewMemFS(), faultfs.Options{})
	em := runio.RecordEmitter(fs, "m")
	runs, _ := makeRuns(t, fs, em, 60, 20, 5)
	fs.Fail(faultfs.Create, 1)
	var out stream.SliceWriter[record.Record]
	_, err := Merge(em, runs, &out, Config{FanIn: 2, MemoryBytes: 1 << 15, Workers: workers})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("error = %v, want the injected create failure", err)
	}
	if after := fs.Failed(faultfs.Create) - 1; after >= workers {
		t.Fatalf("%d merges started after the pass had failed, want fewer than the %d workers", after, workers)
	}
}

// TestMergeHoldsToMemoryBudget checks the merge's division of its memory
// against the blocks it really holds: with two workers, each writer holding
// the one block it is filling, the spill path's pool never has more out
// than MemoryBytes.
// That holds when every input is a four-segment overlap run too: the fan-in
// counts runs, a run's share of the budget is split among its pieces, and
// four times the leaves cost no more buffer — as long as a piece's share is
// still a page, the floor no reader goes under, which the second row's budget
// allows for.
// The base rows merge at the base width of a budget of 2^14 Records
// (BaseFanIn: 256 KiB at a 16 KiB block per input, 15), given explicitly,
// where a lone operation gives each input one 16 KiB block and an overlap
// run's four pieces a page each, and more runs than that width, so
// intermediate operations run beside each other (200 for eight workers, so
// that eight are ready at once). Concurrent operations
// split the blocks, so no more run at once than keep every piece at a page
// (fedWorkers): four of eight workers over single-segment runs, and one of
// two over overlap runs, where two would hold 1.9x the budget.
// The derived rows leave the fan-in zero at the page limit of the same
// budget: 63 single-piece runs merge in one pass, a page each beside the
// output's, and so do 15 runs of which one opens as four pieces; one run
// more than the single-piece limit falls back to two passes at the base
// width. At 1 MiB one overlap run among 64 single-piece ones still merges
// in one pass: blocks are sized per piece.
func TestMergeHoldsToMemoryBudget(t *testing.T) {
	for _, row := range []struct {
		name                 string
		overlap              int // runs that open as four pieces; the others open as one
		memory               int
		fanIn, workers, runs int
		passes               int
	}{
		{"single", 0, 64 << 10, 4, 2, 50, 3},
		{"overlap", 50, 256 << 10, 4, 2, 50, 3},
		{"base/single/1", 0, 256 << 10, 15, 1, 50, 2},
		{"base/single/2", 0, 256 << 10, 15, 2, 50, 2},
		{"base/single/8", 0, 256 << 10, 15, 8, 200, 2},
		{"base/overlap/1", 50, 256 << 10, 15, 1, 50, 2},
		{"base/overlap/2", 50, 256 << 10, 15, 2, 50, 2},
		{"derived/one_pass/single", 0, 256 << 10, 0, 2, 63, 1},
		{"derived/one_pass/overlap", 1, 256 << 10, 0, 2, 15, 1},
		{"derived/past_limit/single", 0, 256 << 10, 0, 2, 64, 2},
		// Blocks are sized per piece, so one overlap run costs its own
		// pieces and no more: 64 single-piece runs and a four-piece one
		// are 68 pieces, a page each beside the output's well within
		// 1 MiB, where sizing every run as the most divided one would
		// need 66 × 4 pages and fall back to two passes.
		{"derived/one_pass/one_overlap", 1, 1 << 20, 0, 2, 65, 1},
		// Runs written in blocks of the merge's share of an input: a
		// reader still holds only the buffer it asks for.
		{"generation_blocks/single/1", 0, 256 << 10, 15, 1, 50, 2},
	} {
		name, fanIn, workers := row.name, row.fanIn, row.workers
		fs := vfs.NewMemFS()
		st := storage.NewRaw(fs)
		em := runio.NewEmitterOn[record.Record](st, "m", codec.Record16{}, record.Less)
		if strings.HasPrefix(row.name, "generation_blocks/") {
			em.Block = Config{FanIn: fanIn, MemoryBytes: row.memory}.bufBytes(1, fanIn)
		}
		runs, all := makeOverlapRuns(t, em, row.overlap, 2000/4, 6)
		single, singleRecs := makeRuns(t, fs, em, row.runs-row.overlap, 2000, 6)
		runs, all = append(runs, single...), append(all, singleRecs...)
		written := storage.PoolOf(st).Peak()
		var out stream.SliceWriter[record.Record]
		ms, err := Merge(em, runs, &out, Config{FanIn: fanIn, MemoryBytes: row.memory, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ms.Passes != row.passes {
			t.Fatalf("%s: %d passes, want %d", name, ms.Passes, row.passes)
		}
		if !record.IsSorted(out.Vals) || !record.NewMultiset(out.Vals).Equal(record.NewMultiset(all)) {
			t.Fatalf("%s: merge output wrong", name)
		}
		peak := storage.PoolOf(st).Peak()
		if peak <= written {
			t.Fatalf("%s: the merge took no block from the pool (peak %d after the runs were written, %d after the merge)", name, written, peak)
		}
		if peak > row.memory {
			t.Fatalf("%s: %d bytes of blocks out of the pool at once, over the budget of %d", name, peak, row.memory)
		}
	}
}
