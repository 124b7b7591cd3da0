package extsort

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// TestFailedGenerationClosesEveryHandle fails the source of a sort under
// every policy, plain and durable, at Parallelism 1 and 2 — once
// in the middle of a run, with the run's streams open, and once on the
// first read after a run boundary — and counts file handles at the seam
// between the spill backend and the arena, where every spill file is one:
// whichever streams the generator had open when it gave up, forward files
// and backward chains alike, the failed sort has closed them all. On the
// physical file system, the arena's handle is closed too, and a plain sort
// has removed everything. The failure points sit around two
// consecutive boundaries of an uninterrupted durable pass (a plain pass cuts
// its runs at the same places), so one of the two runs cut short is a
// down-run of the alternating generator.
func TestFailedGenerationClosesEveryHandle(t *testing.T) {
	recs := testRecords(8000, 11)
	s := aboveArena(t)
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
					fs := faultfs.New(mem, faultfs.Options{})
					var out stream.SliceWriter[record.Record]
					_, err := Sort[record.Record](&killedReader[record.Record]{vals: recs, failAt: failAt}, &out, fs, cfg, RecordOps())
					if !errors.Is(err, errSrcKilled) {
						t.Fatalf("%s: error = %v, want the source's", name, err)
					}
					if n := s.fs.Handles(); n != 0 {
						t.Errorf("%s: %d spill files still open after the failed sort", name, n)
					}
					if n := fs.Handles(); n != 0 {
						t.Errorf("%s: %d physical files still open after the failed sort", name, n)
					}
					if names, _ := mem.Names(); !durable && len(names) != 0 {
						t.Errorf("%s: spill files left behind: %v", name, names)
					}
				}
			}
		}
	}
}
