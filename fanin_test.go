package repro

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"testing"
)

// durableAt builds the durable 2wrs sorter the fan-in tests share: memory
// 2^14 Records, 256 KiB, which feeds 15 inputs at the merge's block floor.
func durableAt(t *testing.T, opts ...Option) *Sorter[Record] {
	t.Helper()
	s, err := New(Record.Less, append([]Option{WithMemoryRecords(1 << 14), WithPolicy("2wrs"), WithManifest()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDefaultFanInMergesInOnePass counts what the derived fan-in saves on a
// durable sort of more runs than the paper's 10 and no more than the budget
// feeds: one merge pass, so the spill path writes every input byte exactly
// once, where fan-in 10 pays a second pass on the same input. Beyond the
// input, run generation writes only the 32-byte header of each
// backward-format file: here every run's two descending streams (Figure
// 4.1's streams 4 and 2) are one file each.
func TestDefaultFanInMergesInOnePass(t *testing.T) {
	recs := shuffledRecords(400_000, 3)
	const headers = 2 * 32 // per run
	s := durableAt(t)
	if got := s.Config().FanIn; got != 15 {
		t.Fatalf("derived fan-in = %d, want 15", got)
	}
	out, st, err := s.SortSlice(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.IsSortedFunc(out, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) }) || len(out) != len(recs) {
		t.Fatal("default fan-in: output not the sorted input")
	}
	if st.Runs <= 10 || st.Runs > 15 {
		t.Fatalf("%d runs, want 11 to 15 for the two fan-ins to differ", st.Runs)
	}
	encoded := int64(len(recs))*16 + int64(st.Runs)*headers
	if st.MergePasses != 1 || st.IO.RawBytesWritten != encoded {
		t.Errorf("default fan-in: %d passes and %d bytes written, want 1 and the %d bytes of the encoded runs",
			st.MergePasses, st.IO.RawBytesWritten, encoded)
	}
	_, st10, err := durableAt(t, WithFanIn(10)).SortSlice(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	if st10.Runs != st.Runs || st10.MergePasses != 2 || st10.IO.RawBytesWritten <= encoded {
		t.Errorf("fan-in 10: %d runs, %d passes and %d bytes written, want %d runs, 2 passes and more than %d",
			st10.Runs, st10.MergePasses, st10.IO.RawBytesWritten, st.Runs, encoded)
	}
}

// TestResumeAcrossFanIns interrupts a durable sort started at fan-in 10 and
// resumes it at the derived default: the fan-in is the merge's alone and no
// part of what the manifest records, so the resumed output is the
// uninterrupted sort's, byte for byte.
func TestResumeAcrossFanIns(t *testing.T) {
	recs := shuffledRecords(400_000, 4)
	want, _, err := durableAt(t).SortSlice(context.Background(), recs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out sliceSink[Record]
	if _, err := durableAt(t, WithFanIn(10), WithTempDir(dir)).Sort(context.Background(),
		&dyingSource{recs: recs, dieAt: 300_000}, &out); !errors.Is(err, errSourceDied) {
		t.Fatalf("interrupted Sort: %v, want errSourceDied", err)
	}
	out.vals = nil
	st, err := durableAt(t, WithTempDir(dir)).Resume(context.Background(), &dyingSource{recs: recs, dieAt: len(recs) + 1}, &out)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if st.RunsRecovered == 0 || st.MergePasses != 1 {
		t.Errorf("Resume recovered %d runs and merged in %d passes, want some and 1", st.RunsRecovered, st.MergePasses)
	}
	if !slices.Equal(out.vals, want) {
		t.Fatal("resumed output differs from the uninterrupted sort's")
	}
}

// TestConfigFanInUnderShards pins what Config reports under Shards: the
// width each shard merges at, derived from its share of the budget. 2^15
// Records (512 KiB) feed 31 inputs unsharded, and a half of them 15.
func TestConfigFanInUnderShards(t *testing.T) {
	for _, tc := range []struct{ shards, want int }{{0, 31}, {1, 31}, {2, 15}} {
		s, err := New(Record.Less, WithMemoryRecords(1<<15), WithShards(tc.shards))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Config().FanIn; got != tc.want {
			t.Errorf("shards %d: fan-in %d, want %d", tc.shards, got, tc.want)
		}
	}
}

// TestDerivedFanInMergesTheBandInOnePass sorts more runs than the base width
// of 15 and no more than 2^14 Records (256 KiB) give a page each: rs over a
// million alternating records leaves 26 single-piece runs, which a derived
// fan-in merges in one pass, writing each run's encoded bytes once and
// nothing more. The same sort at an explicit 15 — the width Config reports —
// keeps to it and pays a second pass.
func TestDerivedFanInMergesTheBandInOnePass(t *testing.T) {
	recs := Dataset(DatasetAlternating, 1_000_000, 42)
	sortAt := func(opts ...Option) Stats {
		t.Helper()
		s, err := New(Record.Less, append([]Option{WithMemoryRecords(1 << 14), WithPolicy("rs")}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Config().FanIn; got != 15 {
			t.Fatalf("Config().FanIn = %d, want the base width 15", got)
		}
		out, st, err := s.SortSlice(context.Background(), recs)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(recs) || !slices.IsSortedFunc(out, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) }) {
			t.Fatal("output not the sorted input")
		}
		return st
	}
	st := sortAt()
	// rs writes forward files only, which carry no header.
	encoded := int64(len(recs)) * 16
	if st.Runs != 26 || st.MergePasses != 1 || st.IO.RawBytesWritten != encoded {
		t.Errorf("derived fan-in: %d runs, %d passes and %d bytes written, want 26 runs, 1 pass and %d bytes",
			st.Runs, st.MergePasses, st.IO.RawBytesWritten, encoded)
	}
	st15 := sortAt(WithFanIn(15))
	if st15.Runs != st.Runs || st15.MergePasses != 2 || st15.IO.RawBytesWritten <= encoded {
		t.Errorf("fan-in 15: %d runs, %d passes and %d bytes written, want %d runs, 2 passes and more than %d",
			st15.Runs, st15.MergePasses, st15.IO.RawBytesWritten, st.Runs, encoded)
	}
}
