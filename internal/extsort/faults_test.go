package extsort

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/record"
	"repro/internal/vfs"
)

// faultFS wraps a vfs.FS and fails every write once the budget of allowed
// writes is exhausted, exercising error propagation through run generation
// and the merge phase.
type faultFS struct {
	vfs.FS
	writesLeft int64
}

var errInjected = errors.New("injected write failure")

type faultFile struct {
	vfs.File
	fs *faultFS
}

func (f *faultFS) Create(name string) (vfs.File, error) {
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
	if atomic.AddInt64(&f.fs.writesLeft, -1) < 0 {
		return 0, errInjected
	}
	return f.File.WriteAt(p, off)
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
