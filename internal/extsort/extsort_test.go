package extsort

import (
	"strings"
	"testing"
	"time"

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

// TestSortHeapEngine holds the sort's multi-pass merge phase to one k-way
// merge: one comparator-only tree over every piece of every generated run
// reads back what RunSet.Merge writes — the same records in the same key
// order; equal keys may land in either order, the multi-pass merge tree
// being no single k-way merge. (The tree is itself held to the reference
// HeapMerger beside internal/merge's tests.)
func TestSortHeapEngine(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 5000, Seed: 2})
	rset, err := GenerateRuns(record.NewSliceReader(recs), vfs.NewMemFS(), Recommended(100), RecordOps())
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
	var out record.SliceWriter
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
	var out record.SliceWriter
	if _, err := Sort(record.NewSliceReader(recs), &out, fs, Recommended(100), RecordOps()); err != nil {
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
	var out record.SliceWriter
	stats, err := Sort(record.NewSliceReader(recs), &out, vfs.NewMemFS(), cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(out.Vals) {
		t.Fatal("output not sorted")
	}
	if stats.RunGenSim <= 0 || stats.MergeSim <= 0 {
		t.Fatalf("simulated times not captured: %+v", stats)
	}
	if stats.TotalSim() != stats.RunGenSim+stats.MergeSim {
		t.Fatal("TotalSim inconsistent")
	}
	if disk.Stats().Bytes() == 0 {
		t.Fatal("disk accounting saw no traffic")
	}
}

func TestStatsTotals(t *testing.T) {
	s := Stats{RunGenSim: 3 * time.Second, MergeSim: 4 * time.Second}
	if s.TotalSim() != 7*time.Second {
		t.Fatalf("totals wrong: %+v", s)
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
		rset, err := GenerateRuns[record.Record](record.NewSliceReader(recs), fs, Recommended(512), RecordOps())
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
	var out record.SliceWriter
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
	rset, err := GenerateRuns[record.Record](record.NewSliceReader(recs), vfs.NewMemFS(), cfg, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	var out record.SliceWriter
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
