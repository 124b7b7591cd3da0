package extsort

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/vfs"
)

// faultFS wraps a vfs.FS and fails every call of one kind — "write" (the
// default), "create" or "close" — once its budget of allowed calls is
// exhausted, exercising error propagation through run generation and the
// merge phase.
type faultFS struct {
	vfs.FS
	op         string
	writesLeft int64 // calls of op still allowed
}

var errInjected = errors.New("injected write failure")

func (f *faultFS) hit(op string) error {
	failing := f.op
	if failing == "" {
		failing = "write"
	}
	if op == failing && atomic.AddInt64(&f.writesLeft, -1) < 0 {
		return errInjected
	}
	return nil
}

type faultFile struct {
	vfs.File
	fs *faultFS
}

func (f *faultFS) Create(name string) (vfs.File, error) {
	if err := f.hit("create"); err != nil {
		return nil, err
	}
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *faultFS) Open(name string) (vfs.File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.hit("write"); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *faultFile) Close() error {
	err := f.fs.hit("close")
	if cerr := f.File.Close(); err == nil {
		err = cerr
	}
	return err
}

func TestSortSurfacesWriteFailures(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 20000, Seed: 1})
	// Sweep the failure point across the whole sort so both phases hit it.
	for _, budget := range []int64{0, 1, 5, 50, 120} {
		fs := &faultFS{FS: vfs.NewMemFS(), writesLeft: budget}
		var out record.SliceWriter
		_, err := Sort(record.NewSliceReader(recs), &out, fs, Recommended(200), RecordOps())
		if !errors.Is(err, errInjected) {
			t.Fatalf("budget %d: error = %v, want injected failure", budget, err)
		}
	}
}

func TestSortSucceedsWithExactBudget(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 5000, Seed: 2})
	// First find out how many writes a clean run needs, then verify the
	// sort succeeds with exactly that budget (no off-by-one retries).
	counter := &faultFS{FS: vfs.NewMemFS(), writesLeft: 1 << 30}
	var out record.SliceWriter
	if _, err := Sort(record.NewSliceReader(recs), &out, counter, Recommended(200), RecordOps()); err != nil {
		t.Fatal(err)
	}
	used := (1 << 30) - atomic.LoadInt64(&counter.writesLeft)

	exact := &faultFS{FS: vfs.NewMemFS(), writesLeft: used}
	var out2 record.SliceWriter
	if _, err := Sort(record.NewSliceReader(recs), &out2, exact, Recommended(200), RecordOps()); err != nil {
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
// close across the whole sort, with and without the write-behind and the
// merge worker pool, on the plain and the framed backend: the injected
// error is what Sort returns — a failure behind the generator's or a merge
// worker's back surfaces by the next barrier, never as success — no
// goroutine outlives the failed sort, and no spill file does either.
func TestSortSurfacesEveryFileFault(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 12000, Seed: 3})
	for _, comp := range []string{"raw", "none"} {
		for _, par := range []int{1, 2} {
			for _, op := range []string{"create", "write", "close"} {
				cfg := Recommended(300)
				cfg.FanIn = 3 // several merge passes
				cfg.Parallelism = par
				cfg.Storage = storage.Config{Compression: comp}
				// How many calls of op a clean sort makes, then every
				// failure point up to it (every few, for writes).
				clean := &faultFS{FS: vfs.NewMemFS(), op: op, writesLeft: 1 << 30}
				var out record.SliceWriter
				if _, err := Sort(record.NewSliceReader(recs), &out, clean, cfg, RecordOps()); err != nil {
					t.Fatal(err)
				}
				calls := (1 << 30) - atomic.LoadInt64(&clean.writesLeft)
				step := max(calls/40, 1)
				if testing.Short() {
					step = max(calls/8, 1)
				}
				before := runtime.NumGoroutine()
				for budget := int64(0); budget < calls; budget += step {
					name := fmt.Sprintf("%s/parallelism=%d/%s=%d", comp, par, op, budget)
					mem := vfs.NewMemFS()
					fs := &faultFS{FS: mem, op: op, writesLeft: budget}
					var out record.SliceWriter
					_, err := Sort(record.NewSliceReader(recs), &out, fs, cfg, RecordOps())
					if !errors.Is(err, errInjected) {
						t.Fatalf("%s: error = %v, want the injected failure", name, err)
					}
					if names, _ := mem.Names(); len(names) != 0 {
						t.Fatalf("%s: spill files left behind: %v", name, names)
					}
					if n := settledGoroutines(before); n > before {
						t.Fatalf("%s: %d goroutines after the failed sort, %d before", name, n, before)
					}
				}
			}
		}
	}
}
