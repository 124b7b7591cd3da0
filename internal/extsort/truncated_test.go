package extsort

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// cutFile truncates the named file to about half its size, eight bytes past
// a record boundary, and returns the sizes before and after.
func cutFile(t *testing.T, fs vfs.FS, name string) (before, after int64) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	before, _ = f.Size()
	after = before/2/record.Size*record.Size + 8
	kept := make([]byte, after)
	if _, err := f.ReadAt(kept, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if f, err = fs.Create(name); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(kept, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return before, after
}

// firstSegment returns the first non-empty segment of the given layout among
// the runs, and the file of it the reader meets first.
func firstSegment(t *testing.T, runs []runio.Run, backward bool) (runio.Segment, string) {
	t.Helper()
	for _, run := range runs {
		for _, s := range run.Segments {
			if s.Records > 0 && s.Backward == backward {
				file := ""
				s.EachFile(func(name string, _ int) {
					if file == "" {
						file = name
					}
				})
				return s, file
			}
		}
	}
	t.Fatalf("no non-empty segment with backward=%v among %d runs", backward, len(runs))
	return runio.Segment{}, ""
}

// TestTruncatedRunFailsMerge cuts one spill file short between the two phases
// of a sort on the default raw backend — where nothing frames or checksums a
// block, so the cut file simply ends early — and requires the merge to fail
// with an error matching storage.ErrCorrupt that names the stream and both
// record counts, wherever the plan reads the run (an intermediate operation
// or the final merge) and however many workers execute it. Before the pieces
// of a run counted their records the merge returned nil with a shorter
// output. A merged stream abandoned before it reaches the cut must not fail:
// TopK and Select close early by design.
func TestTruncatedRunFailsMerge(t *testing.T) {
	recs := testRecords(50_000, 3)
	for _, tc := range []struct {
		kind     policy.Kind
		backward bool
	}{{policy.Quick, false}, {policy.TwoWayRS, false}, {policy.TwoWayRS, true}} {
		for _, par := range []int{1, 2} {
			name := fmt.Sprintf("%v/backward=%v/parallelism=%d", tc.kind, tc.backward, par)
			cfg := Recommended(1000)
			cfg.Policy, cfg.Parallelism, cfg.FanIn = tc.kind, par, 4
			fs := vfs.NewMemFS()
			rset, err := GenerateRuns(stream.NewSliceReader(recs), fs, cfg, RecordOps())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			seg, file := firstSegment(t, rset.Runs(), tc.backward)
			before, after := cutFile(t, rset.spill, file)
			var out stream.SliceWriter[record.Record]
			_, err = rset.Merge(&out)
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("%s: %s cut from %d to %d bytes: Merge wrote %d of %d records and returned %v, want an error matching storage.ErrCorrupt",
					name, file, before, after, len(out.Vals), len(recs), err)
			}
			if msg := err.Error(); !strings.Contains(msg, seg.Name) || !strings.Contains(msg, fmt.Sprint(seg.Records)) {
				t.Fatalf("%s: %q names neither %s nor its %d records", name, msg, seg.Name, seg.Records)
			}
		}
	}

	// Five runs under a fan-in of ten are one final merge. The cut takes the
	// upper half of one run; the first thousand records of the merged order
	// lie well below it.
	fs := vfs.NewMemFS()
	cfg := Recommended(1000)
	cfg.Policy = policy.Quick
	rset, err := GenerateRuns(stream.NewSliceReader(recs[:5000]), fs, cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	_, file := firstSegment(t, rset.Runs(), false)
	cutFile(t, rset.spill, file)
	st, err := rset.OpenMerged()
	if err != nil {
		t.Fatal(err)
	}
	head, _, err := stream.ReadPrefix[record.Record](st, nil, 1000, nil)
	if err != nil || len(head) != 1000 || !record.IsSorted(head) {
		t.Fatalf("abandoned stream: read %d records, %v", len(head), err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("abandoned stream: Close = %v, want nil — nothing was read past the cut", err)
	}
	if names, _ := fs.Names(); len(names) != 0 {
		t.Fatalf("abandoned stream left %v behind", names)
	}
}
