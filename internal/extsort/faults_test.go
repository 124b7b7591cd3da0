package extsort

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// seam is a fault FS between a sort's spill backend and its arena: it
// counts and fails the spill files' own calls, which are the same number at
// every Parallelism, where the arena's writes to its one physical file are
// not.
type seam struct {
	arm   func(*faultfs.FS) // readies each sort's fault FS before the sort uses it
	fs    *faultfs.FS       // the last sort's
	arena *vfs.Arena        // what fs wraps
}

// aboveArena puts a seam under every sort for the rest of the test.
func aboveArena(t *testing.T) *seam {
	s := &seam{arm: func(*faultfs.FS) {}}
	v := spillView
	t.Cleanup(func() { spillView = v })
	spillView = func(fs vfs.FS) vfs.FS {
		s.arena, _ = fs.(*vfs.Arena)
		s.fs = faultfs.New(fs, faultfs.Options{})
		s.arm(s.fs)
		return s.fs
	}
	return s
}

// TestSortSurfacesWriteFailures kills the writes to the sort's physical
// file, its arena, from a point swept across the whole sort, so that both
// phases hit it.
func TestSortSurfacesWriteFailures(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 20000, Seed: 1})
	for _, budget := range []int64{0, 1, 5, 50, 120} {
		fs := faultfs.New(vfs.NewMemFS(), faultfs.Options{})
		fs.Fail(faultfs.Write, budget+1)
		var out stream.SliceWriter[record.Record]
		_, err := Sort(stream.NewSliceReader(recs), &out, fs, Recommended(200), RecordOps())
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("budget %d: error = %v, want injected failure", budget, err)
		}
	}
}

func TestSortSucceedsWithExactBudget(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 5000, Seed: 2})
	// First find out how many spill-file writes a clean run needs, then
	// verify the sort succeeds with exactly that budget (no off-by-one
	// retries).
	s := aboveArena(t)
	var out stream.SliceWriter[record.Record]
	if _, err := Sort(stream.NewSliceReader(recs), &out, vfs.NewMemFS(), Recommended(200), RecordOps()); err != nil {
		t.Fatal(err)
	}
	used := s.fs.Calls(faultfs.Write)

	s.arm = func(fs *faultfs.FS) { fs.Fail(faultfs.Write, used+1) }
	var out2 stream.SliceWriter[record.Record]
	if _, err := Sort(stream.NewSliceReader(recs), &out2, vfs.NewMemFS(), Recommended(200), RecordOps()); err != nil {
		t.Fatalf("sort with exact write budget %d failed: %v", used, err)
	}
	if !record.IsSorted(out2.Vals) || len(out2.Vals) != len(recs) {
		t.Fatal("output wrong under exact budget")
	}
}

// settledGoroutines waits briefly for goroutines that are on their way out
// and returns how many remain.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestSortSurfacesEveryFileFault sweeps a failing create, block write and
// close of a spill file across the whole sort, at Parallelism 1 and 2 — one
// merge worker and a pool of them: the injected error is what Sort returns
// — a failure on a merge worker surfaces when the pass stops, never as
// success — no goroutine outlives the failed sort, and no spill file does
// either: the arena is gone from the file system, no extent left.
func TestSortSurfacesEveryFileFault(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 12000, Seed: 3})
	s := aboveArena(t)
	for _, par := range []int{1, 2} {
		for _, op := range []struct {
			name string
			op   faultfs.Op
		}{{"create", faultfs.Create}, {"write", faultfs.Write}, {"close", faultfs.Close}} {
			cfg := Recommended(300)
			cfg.FanIn = 3 // several merge passes
			cfg.Parallelism = par
			// How many calls of op a clean sort makes, then every
			// failure point up to it (every few, for writes).
			s.arm = func(*faultfs.FS) {}
			var out stream.SliceWriter[record.Record]
			if _, err := Sort(stream.NewSliceReader(recs), &out, vfs.NewMemFS(), cfg, RecordOps()); err != nil {
				t.Fatal(err)
			}
			calls := s.fs.Calls(op.op)
			step := max(calls/40, 1)
			if testing.Short() {
				step = max(calls/8, 1)
			}
			before := runtime.NumGoroutine()
			for budget := int64(0); budget < calls; budget += step {
				name := fmt.Sprintf("parallelism=%d/%s=%d", par, op.name, budget)
				mem := vfs.NewMemFS()
				s.arm = func(fs *faultfs.FS) { fs.Fail(op.op, budget+1) }
				var out stream.SliceWriter[record.Record]
				_, err := Sort(stream.NewSliceReader(recs), &out, mem, cfg, RecordOps())
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("%s: error = %v, want the injected failure", name, err)
				}
				if names, _ := mem.Names(); len(names) != 0 {
					t.Fatalf("%s: spill files left behind: %v", name, names)
				}
				if size := s.arena.Size(); size != 0 {
					t.Fatalf("%s: the discarded arena still spans %d bytes", name, size)
				}
				if n := settledGoroutines(before); n > before {
					t.Fatalf("%s: %d goroutines after the failed sort, %d before", name, n, before)
				}
			}
		}
	}
}
