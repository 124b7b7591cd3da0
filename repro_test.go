package repro

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/record"
	"repro/internal/stream"
)

// sortRecords sorts recs under cfg through New, the way the paper's
// experiments configure a sort.
func sortRecords(recs []Record, cfg Config) ([]Record, Stats, error) {
	s, err := New(Record.Less, WithConfig(cfg))
	if err != nil {
		return nil, Stats{}, err
	}
	return s.SortSlice(context.Background(), recs)
}

func TestSortSliceDefault(t *testing.T) {
	recs := Dataset(DatasetRandom, 10000, 1)
	out, stats, err := sortRecords(recs, DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(out) {
		t.Fatal("output not sorted")
	}
	if !record.NewMultiset(out).Equal(record.NewMultiset(recs)) {
		t.Fatal("not a permutation")
	}
	if stats.Records != 10000 || stats.Runs == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSortAllAlgorithms(t *testing.T) {
	recs := Dataset(DatasetMixedBalanced, 5000, 2)
	for _, alg := range Policies() {
		cfg := DefaultConfig(200)
		cfg.Policy = alg
		out, _, err := sortRecords(recs, cfg)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !record.IsSorted(out) || len(out) != len(recs) {
			t.Fatalf("%v: bad output", alg)
		}
	}
}

func TestSortWithTempDir(t *testing.T) {
	recs := Dataset(DatasetReverseSorted, 5000, 3)
	cfg := DefaultConfig(100)
	cfg.TempDir = filepath.Join(t.TempDir(), "runs")
	out, stats, err := sortRecords(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(out) {
		t.Fatal("output not sorted")
	}
	if stats.Runs != 1 {
		t.Fatalf("2WRS on reverse input: runs = %d, want 1", stats.Runs)
	}
	// Temp dir must be clean afterwards.
	entries, err := os.ReadDir(cfg.TempDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("temp files left: %v", entries)
	}
}

func TestDatasetReaderStreams(t *testing.T) {
	r := DatasetReader(DatasetSorted, 100, 5)
	got, err := stream.ReadAll[record.Record](r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || !record.IsSorted(got) {
		t.Fatal("dataset reader wrong")
	}
	// Deterministic per seed and matching the materialised form.
	mat := Dataset(DatasetSorted, 100, 5)
	for i := range mat {
		if mat[i] != got[i] {
			t.Fatal("reader and slice forms differ")
		}
	}
}

func TestDefaultConfigIsRecommended(t *testing.T) {
	cfg := DefaultConfig(1000)
	// FanIn 0 is "derived from the budget": the paper's 10 at least. The
	// policy is auto; the 2WRS heuristics are the paper's for when it
	// picks 2wrs.
	if cfg.Policy != "auto" || cfg.FanIn != 0 || cfg.Setup != BothBuffers ||
		cfg.BufferFraction != 0.02 || cfg.Input != InputMean || cfg.Output != OutputRandom {
		t.Fatalf("DefaultConfig = %+v, not the paper's §5.3 recommendation", cfg)
	}
}

func TestHeuristicConfigurations(t *testing.T) {
	recs := Dataset(DatasetMixedImbalanced, 3000, 6)
	for _, in := range []InputHeuristic{InputRandom, InputAlternate, InputMean, InputMedian, InputUseful, InputBalancing} {
		for _, out := range []OutputHeuristic{OutputRandom, OutputAlternate, OutputUseful, OutputBalancing, OutputMinDistance} {
			cfg := DefaultConfig(100)
			cfg.Policy, cfg.Input, cfg.Output = "2wrs", in, out
			sorted, _, err := sortRecords(recs, cfg)
			if err != nil {
				t.Fatalf("in=%v out=%v: %v", in, out, err)
			}
			if !record.IsSorted(sorted) || len(sorted) != len(recs) {
				t.Fatalf("in=%v out=%v: bad output", in, out)
			}
		}
	}
}
