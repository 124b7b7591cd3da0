package extsort

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/iosim"
	"repro/internal/merge"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
)

func sortAndCheck(t *testing.T, recs []record.Record, cfg Config) Stats {
	t.Helper()
	out, stats, err := SortSlice(recs, cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(out) {
		t.Fatal("output not sorted")
	}
	if !record.NewMultiset(out).Equal(record.NewMultiset(recs)) {
		t.Fatal("output is not a permutation of the input")
	}
	return stats
}

func TestSortAllAlgorithmsAllDatasets(t *testing.T) {
	const n, m = 5000, 200
	for _, kind := range gen.Kinds {
		recs := gen.Generate(gen.Config{Kind: kind, N: n, Seed: 3, Noise: 100})
		for _, alg := range policy.Kinds {
			cfg := Recommended(m)
			cfg.Policy = alg
			stats := sortAndCheck(t, recs, cfg)
			if stats.Records != n {
				t.Fatalf("%v/%v: records = %d, want %d", kind, alg, stats.Records, n)
			}
			if stats.Runs == 0 {
				t.Fatalf("%v/%v: no runs recorded", kind, alg)
			}
		}
	}
}

func TestSortSmallFanIn(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 20000, Seed: 1})
	cfg := Recommended(100)
	cfg.FanIn = 2
	stats := sortAndCheck(t, recs, cfg)
	if stats.MergePasses < 3 {
		t.Fatalf("fan-in 2 over %d inputs should take several passes, got %d",
			stats.MergeInputs, stats.MergePasses)
	}
}

// TestMergeFanInRule holds MergeFanIn to its table: a zero FanIn is the
// widest merge the budget feeds at a 16 KiB block per input, never below
// the paper's 10; an explicit FanIn and Recommended keep their width, and so
// does a simulated sort, which starts from Recommended (internal/exp); and
// Parallelism is no input to it.
func TestMergeFanInRule(t *testing.T) {
	simulated := Recommended(1 << 16)
	simulated.Disk = iosim.NewDisk(iosim.Defaults2010())
	for _, tc := range []struct {
		name string
		cfg  Config
		elem int
		want int
	}{
		{"derived", Config{Memory: 1 << 16}, 16, 63},
		{"derived from bytes", Config{Memory: 1 << 14}, 32, 31},
		{"derived just above 10", Config{Memory: 12 << 10}, 16, 11},
		{"never below 10", Config{Memory: 1000}, 16, DefaultFanIn},
		{"explicit kept", Config{Memory: 1 << 16, FanIn: 4}, 16, 4},
		{"explicit wider kept", Config{Memory: 1000, FanIn: 200}, 16, 200},
		{"simulated", simulated, 16, DefaultFanIn},
		{"recommended", Recommended(1 << 16), 16, DefaultFanIn},
		{"parallelism 1", Config{Memory: 1 << 16, Parallelism: 1}, 16, 63},
		{"parallelism 2", Config{Memory: 1 << 16, Parallelism: 2}, 16, 63},
	} {
		if got := tc.cfg.MergeFanIn(tc.elem); got != tc.want {
			t.Errorf("%s: MergeFanIn(%d) = %d, want %d", tc.name, tc.elem, got, tc.want)
		}
		if got := tc.cfg.Resolved().MergeFanIn(tc.elem); got != tc.want {
			t.Errorf("%s: resolved, MergeFanIn(%d) = %d, want %d", tc.name, tc.elem, got, tc.want)
		}
	}
}

// TestDerivedFanInPlanIndependentOfParallelism sorts with a derived fan-in
// at Parallelism 1, 2 and 8 on both sides of the one-pass band. 20 runs at
// 2^14 Records (256 KiB, a page each for up to 63 runs) merge in one pass,
// where the base width of 15 would take two. 40 runs at 2^13 (128 KiB, a
// page each for up to 31) merge at the base width of 10, in two passes whose
// intermediate operations two workers run side by side. Each row merges by
// the same plan, writes the same bytes and delivers the same output at
// every setting.
func TestDerivedFanInPlanIndependentOfParallelism(t *testing.T) {
	for _, row := range []struct{ memory, runs, passes, ops int }{
		{1 << 14, 20, 1, 1},
		{1 << 13, 40, 2, 5},
	} {
		recs := gen.Generate(gen.Config{Kind: gen.Random, N: row.runs * row.memory, Seed: 8})
		var (
			want    Stats
			wantOut []record.Record
		)
		for _, par := range []int{1, 2, 8} {
			cfg := Config{Policy: policy.Quick, Memory: row.memory, Parallelism: par}
			out, st, err := SortSlice(recs, cfg, RecordOps())
			if err != nil {
				t.Fatal(err)
			}
			if st.Runs != row.runs || st.MergePasses != row.passes || st.MergeOps != row.ops {
				t.Fatalf("memory %d, parallelism %d: %d runs, %d passes, %d operations; want %d, %d and %d",
					row.memory, par, st.Runs, st.MergePasses, st.MergeOps, row.runs, row.passes, row.ops)
			}
			if par == 1 {
				want, wantOut = st, out
				if !record.IsSorted(out) || !record.NewMultiset(out).Equal(record.NewMultiset(recs)) {
					t.Fatalf("memory %d: output is not the sorted input", row.memory)
				}
			} else if st.IO.RawBytesWritten != want.IO.RawBytesWritten || !slices.Equal(out, wantOut) {
				t.Errorf("memory %d, parallelism %d: %d bytes written and output equal %v; parallelism 1 wrote %d",
					row.memory, par, st.IO.RawBytesWritten, slices.Equal(out, wantOut), want.IO.RawBytesWritten)
			}
		}
	}
}

// TestSortHeapEngine holds the sort's multi-pass merge phase to one k-way
// merge: one comparator-only tree over every piece of every generated run
// reads back what RunSet.Merge writes — the same records in the same key
// order; equal keys may land in either order, the multi-pass merge tree
// being no single k-way merge. (The tree is itself held to the reference
// HeapMerger beside internal/merge's tests.)
func TestSortHeapEngine(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 5000, Seed: 2})
	rset, err := GenerateRuns(stream.NewSliceReader(recs), vfs.NewMemFS(), Recommended(100), RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	var srcs []merge.Source[record.Record]
	for _, run := range rset.Runs() {
		pieces, err := rset.em.Open(run, 4096)
		if err != nil {
			t.Fatal(err)
		}
		for _, piece := range pieces {
			srcs = append(srcs, piece)
		}
	}
	hm, err := merge.NewLoserTree(srcs, record.Less)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stream.ReadAllCancel[record.Record](hm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := hm.Close(); err != nil {
		t.Fatal(err)
	}
	var out stream.SliceWriter[record.Record]
	if _, err := rset.Merge(&out); err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(want) || !record.IsSorted(out.Vals) ||
		!record.NewMultiset(want).Equal(record.NewMultiset(recs)) ||
		!record.NewMultiset(out.Vals).Equal(record.NewMultiset(recs)) {
		t.Fatalf("the one k-way merge read %d records, Merge wrote %d: both must be the sorted input", len(want), len(out.Vals))
	}
}

func TestSortEmptyInput(t *testing.T) {
	stats := sortAndCheck(t, nil, Recommended(50))
	if stats.Records != 0 || stats.Runs != 0 {
		t.Fatalf("empty sort stats = %+v", stats)
	}
}

func TestSortSingleRecord(t *testing.T) {
	stats := sortAndCheck(t, record.FromKeys(7), Recommended(50))
	if stats.Runs != 1 {
		t.Fatalf("runs = %d, want 1", stats.Runs)
	}
}

func TestSortRejectsBadConfig(t *testing.T) {
	if _, _, err := SortSlice[record.Record](nil, Config{Memory: 0}, RecordOps()); err == nil {
		t.Fatal("memory 0 should fail")
	}
	_, _, err := SortSlice[record.Record](nil, Config{Memory: 100, Policy: policy.Kind(42)}, RecordOps())
	if err == nil || !strings.Contains(err.Error(), strings.Join(policy.Names(), ", ")) {
		t.Fatalf("unknown policy: err = %v, want one listing the valid names", err)
	}
}

func TestSortCleansUpTempFiles(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 5000, Seed: 4})
	fs := vfs.NewMemFS()
	var out stream.SliceWriter[record.Record]
	if _, err := Sort(stream.NewSliceReader(recs), &out, fs, Recommended(100), RecordOps()); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.Names()
	if len(names) != 0 {
		t.Fatalf("temp files left behind: %v", names)
	}
}

func TestSortWithSimulatedDisk(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 10000, Seed: 5})
	disk := iosim.NewDisk(iosim.Defaults2010())
	cfg := Recommended(200)
	cfg.Disk = disk
	rset, err := GenerateRuns(stream.NewSliceReader(recs), vfs.NewMemFS(), cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	genT := disk.Elapsed()
	var out stream.SliceWriter[record.Record]
	if _, err := rset.Merge(&out); err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(out.Vals) {
		t.Fatal("output not sorted")
	}
	if genT <= 0 || disk.Elapsed() <= genT {
		t.Fatalf("disk clock did not advance in both phases: %v after generation, %v after merge", genT, disk.Elapsed())
	}
	if disk.Stats().Bytes() == 0 {
		t.Fatal("disk accounting saw no traffic")
	}
}

func TestCustomTWRSConfigRespected(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: 10000, Seed: 6, Noise: 50})
	cfg := Config{
		Memory: 300,
		FanIn:  10,
		TWRS: core.Config{
			Setup:      core.BothBuffers,
			BufferFrac: 0.2,
			Input:      core.InMedian,
			Output:     core.OutBalancing,
		},
	}
	stats := sortAndCheck(t, recs, cfg)
	// Mixed data with a victim buffer must collapse to far fewer runs than
	// RS's n/(2m) ≈ 16.
	if stats.Runs > 6 {
		t.Fatalf("mixed data with big victim buffer gave %d runs", stats.Runs)
	}
}

func TestRSvsTwoWayOnReverse(t *testing.T) {
	// End to end, 2WRS must move far fewer bytes through the merge on
	// reverse-sorted input (Theorem 3 vs 4 consequences).
	recs := gen.Generate(gen.Config{Kind: gen.ReverseSorted, N: 20000, Seed: 7})
	rsCfg := Recommended(200)
	rsCfg.Policy = policy.RS
	rsStats := sortAndCheck(t, recs, rsCfg)
	twCfg := Recommended(200)
	twStats := sortAndCheck(t, recs, twCfg)
	if twStats.Runs != 1 {
		t.Fatalf("2WRS runs = %d, want 1", twStats.Runs)
	}
	if rsStats.Runs < 50 {
		t.Fatalf("RS runs = %d, want ≈100", rsStats.Runs)
	}
	if twStats.MergePasses >= rsStats.MergePasses {
		t.Fatalf("2WRS merge passes (%d) should be fewer than RS (%d)",
			twStats.MergePasses, rsStats.MergePasses)
	}
}

// TestGenerateRunsBoundary exercises the run-set boundary directly: phase
// one alone, then the three ways to dispose of a RunSet — OpenMerged,
// Merge, Discard — with file-system cleanliness pinned after each.
func TestGenerateRunsBoundary(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 20_000, Seed: 3, Noise: 1000})
	mk := func() (*RunSet[record.Record], vfs.FS) {
		fs := vfs.NewMemFS()
		rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), fs, Recommended(512), RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		return rset, fs
	}

	// Phase-one stats are complete before any merge work happens.
	rset, fs := mk()
	st := rset.Stats()
	if st.Records != 20_000 || st.Runs < 2 || st.MergeOps != 0 || st.MergeInputs != 0 {
		t.Fatalf("run-generation stats %+v, want runs and no merge half", st)
	}
	if len(rset.Runs()) != st.Runs {
		t.Fatalf("Runs() has %d entries, stats say %d", len(rset.Runs()), st.Runs)
	}

	// OpenMerged streams the globally sorted order.
	ms, err := rset.OpenMerged()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := stream.ReadAllCancel[record.Record](ms, nil)
	if err != nil || !record.IsSorted(merged) || len(merged) != 20_000 {
		t.Fatalf("streamed %d records (sorted: %v), %v; want 20000 in order", len(merged), record.IsSorted(merged), err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.Names(); len(names) != 0 {
		t.Fatalf("files left after streamed merge: %v", names)
	}

	// Merge completes the sort with full two-phase stats.
	rset, fs = mk()
	var out stream.SliceWriter[record.Record]
	st, err = rset.Merge(&out)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(out.Vals) || st.MergeInputs != st.Runs {
		t.Fatalf("Merge stats %+v over %d records", st, len(out.Vals))
	}
	if names, _ := fs.Names(); len(names) != 0 {
		t.Fatalf("files left after Merge: %v", names)
	}

	// Discard deletes everything without merging.
	rset, fs = mk()
	if err := rset.Discard(); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.Names(); len(names) != 0 {
		t.Fatalf("files left after Discard: %v", names)
	}
}

// TestSortEqualsGenerateRunsPlusMerge pins that Sort is exactly the
// composition of the two halves of the boundary.
func TestSortEqualsGenerateRunsPlusMerge(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: 10_000, Seed: 4, Noise: 1000})
	cfg := Recommended(256)
	cfg.Parallelism = 1

	direct, dstats, err := SortSlice(recs, cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), vfs.NewMemFS(), cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	var out stream.SliceWriter[record.Record]
	cstats, err := rset.Merge(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(out.Vals) {
		t.Fatalf("composed sort has %d records, direct %d", len(out.Vals), len(direct))
	}
	for i := range direct {
		if direct[i] != out.Vals[i] {
			t.Fatalf("record %d differs: %v vs %v", i, direct[i], out.Vals[i])
		}
	}
	if dstats.Runs != cstats.Runs || dstats.MergeOps != cstats.MergeOps || dstats.MergePasses != cstats.MergePasses {
		t.Fatalf("stats diverge: direct %+v, composed %+v", dstats, cstats)
	}
}
