package extsort

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// handleFS counts the files it has handed out against the ones closed.
type handleFS struct {
	vfs.FS
	open atomic.Int64
}

type countedFile struct {
	vfs.File
	fs     *handleFS
	closed atomic.Bool
}

func (h *handleFS) counted(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	h.open.Add(1)
	return &countedFile{File: f, fs: h}, nil
}

func (h *handleFS) Create(name string) (vfs.File, error) { return h.counted(h.FS.Create(name)) }
func (h *handleFS) Open(name string) (vfs.File, error)   { return h.counted(h.FS.Open(name)) }

func (f *countedFile) Close() error {
	if !f.closed.Swap(true) {
		f.fs.open.Add(-1)
	}
	return f.File.Close()
}

// TestFailedGenerationClosesEveryHandle fails the source of a sort under
// every policy, plain and durable, with and without the write-behind — once
// in the middle of a run, with the run's streams open, and once on the
// first read after a run boundary — and counts file handles: whichever
// streams the generator had open when it gave up, forward files and
// backward chains alike, the failed sort has closed them all, and a plain
// one has also removed every spill file. The failure points sit around two
// consecutive boundaries of an uninterrupted durable pass (a plain pass cuts
// its runs at the same places), so one of the two runs cut short is a
// down-run of the alternating generator.
func TestFailedGenerationClosesEveryHandle(t *testing.T) {
	recs := testRecords(8000, 11)
	for _, kind := range policy.Kinds {
		cfg := Config{Policy: kind, Memory: 256, Manifest: true}
		_, st, _ := durableBaseline(t, recs, cfg, RecordOps())
		if len(st.Runs) < 5 {
			t.Fatalf("%v: %d runs, too few to fail between", kind, len(st.Runs))
		}
		points := map[string]int64{}
		for k := 1; k <= 2; k++ {
			at, next := st.Runs[k].InputPos, st.Runs[k+1].InputPos
			points[fmt.Sprintf("boundary %d", k)] = at + 1
			points[fmt.Sprintf("inside run %d", k+1)] = (at + next) / 2
		}
		for _, durable := range []bool{false, true} {
			for _, par := range []int{1, 2} {
				for where, failAt := range points {
					name := fmt.Sprintf("%v/durable=%v/parallelism=%d/%s (record %d)", kind, durable, par, where, failAt)
					cfg.Manifest, cfg.Parallelism = durable, par
					mem := vfs.NewMemFS()
					fs := &handleFS{FS: mem}
					var out stream.SliceWriter[record.Record]
					_, err := Sort[record.Record](&killedReader[record.Record]{vals: recs, failAt: failAt}, &out, fs, cfg, RecordOps())
					if !errors.Is(err, errSrcKilled) {
						t.Fatalf("%s: error = %v, want the source's", name, err)
					}
					if n := fs.open.Load(); n != 0 {
						t.Errorf("%s: %d file handles still open after the failed sort", name, n)
					}
					if names, _ := mem.Names(); !durable && len(names) != 0 {
						t.Errorf("%s: spill files left behind: %v", name, names)
					}
				}
			}
		}
	}
}
