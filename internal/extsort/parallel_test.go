package extsort

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
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

// fsFingerprint snapshots every file of the FS by name.
func fsFingerprint(t *testing.T, fs vfs.FS) map[string][]byte {
	t.Helper()
	names, err := fs.Names()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(names))
	for _, n := range names {
		out[n] = readFile(t, fs, n)
	}
	return out
}

// TestRunFilesByteIdenticalAsync is the on-disk-format fixture: for a fixed
// seed, run generation through a synchronous emitter and through one whose
// files go through a write-behind (what Parallelism > 1 enables) must
// produce exactly the same files with exactly the same bytes — block frames
// included, on the framed backend — for 2WRS, RS and quick. A budget is
// declared on the pool so the generators' blocks are larger than a page.
func TestRunFilesByteIdenticalAsync(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: 20000, Seed: 7, Noise: 100})

	generate := func(async bool, alg policy.Kind, comp string) map[string][]byte {
		fs := vfs.NewMemFS()
		st, err := storage.New(fs, storage.Config{Compression: comp})
		if err != nil {
			t.Fatal(err)
		}
		storage.PoolOf(st).Reserve(64 << 10)
		em := runio.NewEmitterOn[record.Record](st, "fix", codec.Record16{}, record.Less)
		em.Async = async
		em.PagesPerFile = 64
		pcfg := policy.Config{Memory: 500, TWRS: core.Config{
			Setup: core.BothBuffers, BufferFrac: 0.02,
			Input: core.InMean, Output: core.OutRandom, Seed: 11,
		}}
		if alg == policy.Quick {
			pcfg.Memory = 1500
		}
		if _, err = policy.Generate[record.Record](alg, record.NewSliceReader(recs), em, pcfg, record.Key); err != nil {
			t.Fatal(err)
		}
		return fsFingerprint(t, fs)
	}

	for _, comp := range []string{"raw", "none"} {
		for _, alg := range []policy.Kind{policy.TwoWayRS, policy.RS, policy.Quick} {
			sync := generate(false, alg, comp)
			async := generate(true, alg, comp)
			if len(sync) == 0 {
				t.Fatalf("%s/%v: no run files produced", comp, alg)
			}
			if len(sync) != len(async) {
				t.Fatalf("%s/%v: file sets differ: %d sync vs %d async", comp, alg, len(sync), len(async))
			}
			for name, want := range sync {
				got, ok := async[name]
				if !ok {
					t.Fatalf("%s/%v: file %s missing from async run", comp, alg, name)
				}
				if !bytes.Equal(want, got) {
					t.Fatalf("%s/%v: file %s differs between sync and async spill", comp, alg, name)
				}
			}
		}
	}
}

// TestSortParallelismEquivalence runs the same sort at Parallelism 1 and 4
// (and the default) and requires identical sorted output, identical
// run-generation statistics and an identical merge — the same operations,
// tree depth and bytes written: concurrency must change only the schedule.
func TestSortParallelismEquivalence(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 30000, Seed: 9})

	run := func(par int) ([]record.Record, Stats) {
		cfg := Recommended(300) // ~100 runs: several intermediate merge passes
		cfg.Parallelism = par
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

// TestSortParallelWriteFailure verifies error propagation through the
// worker pool and the async spill writers, killing the writes to the sort's
// physical file, its arena.
func TestSortParallelWriteFailure(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 20000, Seed: 1})
	for _, budget := range []int64{0, 1, 5, 50, 120} {
		fs := faultfs.New(vfs.NewMemFS(), faultfs.Options{})
		fs.Fail(faultfs.Write, budget+1)
		cfg := Recommended(200)
		cfg.Parallelism = 4
		var out record.SliceWriter
		_, err := Sort(record.NewSliceReader(recs), &out, fs, cfg, RecordOps())
		if err == nil {
			t.Fatalf("budget %d: parallel sort swallowed the injected failure", budget)
		}
	}
}
