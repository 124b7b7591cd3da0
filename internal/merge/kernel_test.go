package merge

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// raggedSource serves vals in batches of uneven length — never more than
// max elements, whatever room dst has — ends in err (io.EOF for a clean
// end) and counts its Closes.
type raggedSource[T any] struct {
	vals   []T
	max    int
	err    error
	calls  int
	closes int
}

func (s *raggedSource[T]) ReadBatch(dst []T) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if len(s.vals) == 0 {
		return 0, s.err
	}
	s.calls++
	n := copy(dst[:min(len(dst), 1+s.calls*7%s.max)], s.vals)
	s.vals = s.vals[n:]
	return n, nil
}

func (s *raggedSource[T]) Close() error {
	s.closes++
	return nil
}

var errRagged = errors.New("ragged source failed")

// checkRagged holds the tree newTree builds for kc to want — the merged
// order of the runs, tie placement included — when every source hands its
// run over in ragged batches and the tree is drained once through ReadBatch
// with ragged dst lengths (an empty dst among them) and once an element a call.
// failing, when it names a run, makes that source end in an error: the tree
// must deliver want up to and including that run's last element, then the
// error and nothing with it. Either way every source is closed once.
func checkRagged[T comparable](t *testing.T, what string, runs [][]T, want []T, less func(a, b T) bool, kc codec.KeyCodec[T], maxBatch, failing int) {
	t.Helper()
	// Where the failing run's last element sits in want: an index when the
	// element is unique, a range when equal elements surround it.
	lo, hi := len(want), len(want)
	if failing < len(runs) {
		if last := runs[failing]; len(last) > 0 {
			lo = slices.Index(want, last[len(last)-1]) + 1
			hi = lo
			for hi < len(want) && want[hi] == want[lo-1] {
				hi++
			}
		} else {
			lo, hi = 0, 0
		}
	}
	for _, batched := range []bool{true, false} {
		what := fmt.Sprintf("%s, batched=%v, k=%d, longest batch %d, failing %d", what, batched, len(runs), maxBatch, failing)
		srcs := make([]Source[T], len(runs))
		for i, run := range runs {
			s := &raggedSource[T]{vals: run, max: maxBatch, err: io.EOF}
			if i == failing {
				s.err = errRagged
			}
			srcs[i] = s
		}
		closedOnce := func() {
			t.Helper()
			for i, s := range srcs {
				if c := s.(*raggedSource[T]).closes; c != 1 {
					t.Fatalf("%s: source %d closed %d times", what, i, c)
				}
			}
		}
		lt, err := newTree(srcs, less, kc)
		if err != nil {
			// Only priming a source that fails before its first element may.
			if err != errRagged || hi != 0 {
				t.Fatalf("%s: newTree: %v", what, err)
			}
			closedOnce()
			continue
		}
		var got []T
		dst := make([]T, 2*leafBatch+3)
		for calls := 0; err == nil; calls++ {
			n := 1
			if batched {
				n = calls * 37 % len(dst)
			}
			n, err = lt.ReadBatch(dst[:n])
			if n > 0 && err != nil {
				t.Fatalf("%s: ReadBatch returned %d elements with %v", what, n, err)
			}
			got = append(got, dst[:n]...)
		}
		if failing < len(runs) {
			if err != errRagged || len(got) < lo || len(got) > hi {
				t.Fatalf("%s: %d elements then %v, want between %d and %d then the source's error", what, len(got), err, lo, hi)
			}
		} else if err != io.EOF {
			t.Fatalf("%s: %v after %d elements of %d", what, err, len(got), len(want))
		}
		sameElements(t, what, got, want[:len(got)])
		if err := lt.Close(); err != nil {
			t.Fatalf("%s: Close: %v", what, err)
		}
		closedOnce()
	}
}

// raggedCase builds sorted runs out of fuzz bytes and runs checkRagged over
// the four shapes of the tree. data[0] picks the fan-in (1..9), data[1] the
// run whose source fails (or none), data[2] the longest batch a source
// returns; every later byte is one record — high nibble its run, low nibble
// its key, so keys repeat heavily, and Aux its position, so records are
// distinct. The record shapes run under record.Less and under the
// tie-refining keyThenAux; the total-key shape runs over the keys as int64s.
// Every record shape is also merged from disk, the runs as the overlapping
// segments of one spilled run (checkSegments).
func raggedCase(t *testing.T, data []byte) {
	if len(data) < 3 {
		return
	}
	k := 1 + int(data[0])%9
	failing := int(data[1]) % (k + 1) // k: no source fails
	maxBatch := 1 + int(data[2])
	recs := make([][]record.Record, k)
	for p, b := range data[3:] {
		recs[int(b>>4)%k] = append(recs[int(b>>4)%k], record.Record{Key: int64(b & 0x0f), Aux: uint64(p)})
	}
	clean := func(less func(a, b record.Record) bool) func() []Source[record.Record] {
		return func() []Source[record.Record] {
			srcs := make([]Source[record.Record], k)
			for i, run := range recs {
				sort.SliceStable(run, func(a, b int) bool { return less(run[a], run[b]) })
				srcs[i] = genSrcOf(run)
			}
			return srcs
		}
	}
	for _, c := range []struct {
		name string
		less func(a, b record.Record) bool
	}{{"record.Less", record.Less}, {"keyThenAux", keyThenAux}} {
		ref := referenceOutput(t, clean(c.less), c.less)
		want := treeOutput(t, clean(c.less)(), c.less, nil)
		sameOrder(t, c.name+": unkeyed tree vs heap merger", want, ref, c.less)
		for _, sh := range recordShapes {
			checkRagged(t, c.name+", "+sh.name, recs, want, c.less, sh.kc, maxBatch, failing)
			checkSegments(t, c.name+", "+sh.name, recs, want, c.less, sh.kc, maxBatch, failing)
		}
	}
	ints := make([][]int64, k)
	for i, run := range recs {
		for _, r := range run {
			ints[i] = append(ints[i], r.Key)
		}
	}
	want := slices.Concat(ints...)
	slices.Sort(want)
	checkRagged[int64](t, "total key", ints, want, lessInt64, codec.KeyInt64{}, maxBatch, failing)
}

// raggedSeeds are the inputs the fuzz target starts from and the seeded test
// runs: the degenerate fan-ins, a failing source with and without elements,
// and inputs long enough that sources fill whole leaf batches.
func raggedSeeds() [][]byte {
	seeds := [][]byte{
		{0, 1, 0},
		{0, 0, 255, 0x03, 0x01, 0x01},
		{3, 4, 2, 0x00, 0x10, 0x20, 0x30, 0x01, 0x11},
		{3, 1, 2, 0x00, 0x20, 0x30, 0x01, 0x21},
		{8, 9, 7, 0x0f, 0x1f, 0x2f, 0x3f, 0x4f, 0x5f, 0x6f, 0x7f, 0x8f},
	}
	rng := rand.New(rand.NewSource(20))
	// The last two heads are for the segments on disk: a backward chain that
	// cannot be opened (the tree fails priming it) and a forward file cut short.
	for _, head := range [][]byte{{1, 2, 255}, {3, 4, 255}, {3, 2, 99}, {8, 9, 255}, {8, 5, 17}, {2, 0, 255}, {3, 2, 6}, {5, 3, 1}} {
		body := make([]byte, 600+rng.Intn(2400))
		rng.Read(body)
		seeds = append(seeds, append(head, body...))
	}
	return seeds
}

// TestTreeMatchesHeapMergerRagged runs the fuzz target's seeds, -short
// included.
func TestTreeMatchesHeapMergerRagged(t *testing.T) {
	for _, seed := range raggedSeeds() {
		raggedCase(t, seed)
	}
}

// FuzzTreeMatchesHeapMerger lets the fuzzer pick the runs, the batch
// boundaries and the source that fails.
func FuzzTreeMatchesHeapMerger(f *testing.F) {
	for _, seed := range raggedSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<13 {
			t.Skip()
		}
		raggedCase(t, data)
	})
}

// TestTreeReadBatchDoesNotAllocate pins the steady-state loop — advances,
// leaf refills and replays — to no allocation, keyed and unkeyed.
func TestTreeReadBatchDoesNotAllocate(t *testing.T) {
	const k, rounds = 4, 100
	dst := make([]record.Record, 3*leafBatch)
	for _, sh := range recordShapes[:2] {
		srcs := make([]Source[record.Record], k)
		for i := range srcs {
			run := make([]record.Record, (rounds+2)*len(dst)/k)
			for j := range run {
				run[j] = record.Record{Key: int64(j*k + i*j%k), Aux: uint64(i)}
			}
			srcs[i] = genSrcOf(run)
		}
		lt, err := newTree(srcs, record.Less, sh.kc)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(rounds, func() {
			if n, err := lt.ReadBatch(dst); n != len(dst) || err != nil {
				t.Fatalf("%s: ReadBatch = %d, %v", sh.name, n, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocations per ReadBatch of %d elements", sh.name, allocs, len(dst))
		}
		lt.Close()
	}
}

// TestMergeReusesLeafState holds a merge's allocation to not growing by a
// set of leaves, or by a copy batch, per merge operation: what 40 operations
// allocate over what 10 do is, per further operation, less than the
// operation's decoded leaves and their keys take, and less than the batch
// its copy loop moves — the merging goroutine's arena holds those once, and
// what is left is the per-file reader and writer state. Runs are a record a
// segment so that nothing else scales, and the files are real ones: the
// in-memory file system allocates what it stores. The second row merges
// four-segment overlap runs, four leaves a run: the arena grows once to the
// widest operation's leaves and is reused like any other, so what a further
// operation allocates — four times the files now — stays below its leaves.
func TestMergeReusesLeafState(t *testing.T) {
	const fanIn = 8
	allocated := func(ops, pieces int) uint64 {
		em := runio.NewEmitterOn[record.Record](storage.NewRaw(vfs.NewOSFS(t.TempDir())), "m", codec.Record16{}, record.Less)
		em.KeyCodec = codec.KeyRecord16{}
		// ops-1 intermediate merges and the final one.
		var runs []runio.Run
		if pieces == 1 {
			runs, _ = makeRuns(t, nil, em, ops*(fanIn-1)+1, 1, 7)
		} else {
			runs, _ = makeOverlapRuns(t, em, ops*(fanIn-1)+1, 1, 7)
		}
		var out stream.SliceWriter[record.Record]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats, err := Merge(em, runs, &out, Config{FanIn: fanIn, MemoryBytes: 1 << 16})
		runtime.ReadMemStats(&after)
		if err != nil || stats.Merges != ops || len(out.Vals) != pieces*len(runs) {
			t.Fatalf("merge of %d runs: %d operations, %d records, %v; want %d operations", len(runs), stats.Merges, len(out.Vals), err, ops)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	copyBatch := uint64(stream.DefaultBatchLen * unsafe.Sizeof(record.Record{}))
	for _, pieces := range []int{1, 4} {
		few, many := allocated(10, pieces), allocated(40, pieces)
		leafSet := uint64(fanIn*pieces*leafBatch) * uint64(unsafe.Sizeof(record.Record{})+8)
		bound := leafSet
		if pieces == 1 {
			bound = min(leafSet, copyBatch)
		}
		if perOp := (many - few) / 30; many > few && perOp >= bound {
			t.Fatalf("%d pieces a run: each further merge operation allocates %d bytes (10 operations %d, 40 operations %d): its %d bytes of leaves or the %d of its copy batch are not reused",
				pieces, perOp, few, many, leafSet, copyBatch)
		}
	}
}

// TestSequentialScheduleUnchanged holds the sequential schedule's sorted
// insertion to the rule it replaced — re-sort the whole queue, stably, after
// every operation: the same groups of runs, in the same order, merged under
// the same output names at the same widths, over runs of uneven and heavily
// repeated sizes.
func TestSequentialScheduleUnchanged(t *testing.T) {
	const fanIn, n = 4, 3000
	fs := &scheduleFS{FS: vfs.NewMemFS()}
	em := runio.RecordEmitter(fs, "m")
	rng := rand.New(rand.NewSource(5))
	runs := make([]runio.Run, n)
	for i := range runs {
		size := int64(1 + rng.Intn(3)*rng.Intn(40)) // a third of them one record, many equal
		w, err := em.Stream("run", false)
		if err != nil {
			t.Fatal(err)
		}
		for j := int64(0); j < size; j++ {
			if err := w.WriteBatch([]record.Record{{Key: j, Aux: uint64(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		runs[i] = runio.SingleRun(w.Segment())
	}

	// The reference: the rule as it was, over (name, size) pairs.
	type run struct {
		name string
		size int64
	}
	var want []string
	queue := make([]run, n)
	for i, r := range runs {
		queue[i] = run{r.Segments[0].Name, r.Records}
	}
	resort := func() {
		sort.SliceStable(queue, func(i, j int) bool { return queue[i].size < queue[j].size })
	}
	resort()
	width := (n-1)%(fanIn-1) + 1
	for len(queue) > fanIn {
		if width == 1 {
			width = fanIn
		}
		out := run{name: fmt.Sprintf("m-%04d-merge", n+1+len(want))}
		step := fmt.Sprintf("%s width %d:", out.name, width)
		for _, r := range queue[:width] {
			step += " " + r.name
			out.size += r.size
		}
		want = append(want, step)
		queue = append(queue[width:], out)
		resort()
		width = fanIn
	}

	// The schedule under test, seen at the file system: every merge operation
	// opens its inputs, in group order, and then creates its output.
	fs.log = true
	st, err := NewStream(em, runs, Config{FanIn: fanIn, MemoryBytes: 1 << 16})
	fs.log = false
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(fs.steps) != len(want) {
		t.Fatalf("%d merge operations, the re-sorting rule makes %d", len(fs.steps), len(want))
	}
	for i := range want {
		if fs.steps[i] != want[i] {
			t.Fatalf("operation %d:\n got %s\nwant %s", i, fs.steps[i], want[i])
		}
	}
}

// scheduleFS records, while log is set, what each merge operation opened —
// its inputs, in group order — and the output it then created, as one step
// in TestSequentialScheduleUnchanged's spelling. An operation opens and
// creates on the goroutine of the worker that executes it, so the opens are
// kept per goroutine and concurrent operations do not mix; steps is in
// creation order.
type scheduleFS struct {
	vfs.FS
	log    bool
	mu     sync.Mutex
	opened map[string][]string
	steps  []string
}

// goroutineID is the calling goroutine's number, from its stack header
// ("goroutine 12 [running]:").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

func (fs *scheduleFS) Open(name string) (vfs.File, error) {
	if fs.log {
		fs.mu.Lock()
		if fs.opened == nil {
			fs.opened = map[string][]string{}
		}
		fs.opened[goroutineID()] = append(fs.opened[goroutineID()], name)
		fs.mu.Unlock()
	}
	return fs.FS.Open(name)
}

func (fs *scheduleFS) Create(name string) (vfs.File, error) {
	if fs.log {
		fs.mu.Lock()
		id := goroutineID()
		step := fmt.Sprintf("%s width %d:", name, len(fs.opened[id]))
		for _, in := range fs.opened[id] {
			step += " " + in
		}
		fs.steps = append(fs.steps, step)
		delete(fs.opened, id)
		fs.mu.Unlock()
	}
	return fs.FS.Create(name)
}
