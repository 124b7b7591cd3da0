package extsort

import (
	"io"
	"testing"

	"repro/internal/gen"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// readFile returns the full contents of a MemFS file.
func readFile(t *testing.T, fs vfs.FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	return buf
}

// TestSortParallelismEquivalence runs the same sort at Parallelism 1 and 4
// (and the default) and requires identical sorted output, identical
// run-generation statistics and an identical merge — the same operations,
// tree depth and bytes written: concurrency must change only the schedule.
func TestSortParallelismEquivalence(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 300_000, Seed: 9})

	run := func(par int) ([]record.Record, Stats) {
		// 12 Ki Records (192 KiB) feed four 2-way operations at once at
		// a page for each piece of a run (merge's fedWorkers), so all four
		// workers merge; a dozen runs take several intermediate passes.
		cfg := Recommended(12 << 10)
		cfg.FanIn, cfg.Parallelism = 2, par
		out, stats, err := SortSlice(recs, cfg, RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		return out, stats
	}

	base, baseStats := run(1)
	if !record.IsSorted(base) || len(base) != len(recs) {
		t.Fatal("sequential output wrong")
	}
	for _, par := range []int{0, 4} {
		out, stats := run(par)
		if len(out) != len(base) {
			t.Fatalf("parallelism %d: output length %d, want %d", par, len(out), len(base))
		}
		for i := range out {
			if out[i] != base[i] {
				t.Fatalf("parallelism %d: output diverges at %d", par, i)
			}
		}
		if stats.Runs != baseStats.Runs || stats.Records != baseStats.Records {
			t.Fatalf("parallelism %d: run generation stats diverged: %+v vs %+v", par, stats, baseStats)
		}
		if stats.MergeOps != baseStats.MergeOps || stats.MergePasses != baseStats.MergePasses || stats.IO.RawBytesWritten != baseStats.IO.RawBytesWritten {
			t.Fatalf("parallelism %d: %d merge operations, %d passes, %d raw bytes written; parallelism 1 made %d, %d, %d", par,
				stats.MergeOps, stats.MergePasses, stats.IO.RawBytesWritten, baseStats.MergeOps, baseStats.MergePasses, baseStats.IO.RawBytesWritten)
		}
	}
}

// TestSortParallelWriteFailure verifies error propagation through run
// generation and the merge worker pool, killing the writes to the sort's
// physical file, its arena, at points up to 800 of its about 1,000.
func TestSortParallelWriteFailure(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 300_000, Seed: 1})
	for _, budget := range []int64{0, 1, 5, 50, 120, 400, 800} {
		fs := faultfs.New(vfs.NewMemFS(), faultfs.Options{})
		fs.Fail(faultfs.Write, budget+1)
		// As above: a budget that feeds all four merge workers.
		cfg := Recommended(12 << 10)
		cfg.FanIn, cfg.Parallelism = 2, 4
		var out stream.SliceWriter[record.Record]
		_, err := Sort(stream.NewSliceReader(recs), &out, fs, cfg, RecordOps())
		if err == nil {
			t.Fatalf("budget %d: parallel sort swallowed the injected failure", budget)
		}
	}
}
