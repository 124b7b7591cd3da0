// Quickstart: sort a dataset that does not fit in the configured memory
// budget, using the paper's recommended 2WRS configuration, and print the
// run-generation statistics that make 2WRS interesting.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	// One million records of a "mixed" stream — an ascending trend
	// interleaved with a descending one, the workload databases produce
	// when scanning anticorrelated columns — sorted with memory for only
	// 10k records (1% of the input). The runs spill to process memory;
	// set cfg.TempDir to spill them to files instead.
	const n, memory = 1_000_000, 10_000
	recs := repro.Dataset(repro.DatasetMixedBalanced, n, 42)
	cfg := repro.DefaultConfig(memory)
	cfg.Policy = "2wrs" // the paper's generator; the default, auto, picks by cost
	stats := sortRecords(recs, cfg)

	fmt.Printf("sorted %d records with memory for %d (%.1f%% of input)\n",
		stats.Records, memory, 100*float64(memory)/float64(n))
	fmt.Printf("runs generated:     %d\n", stats.Runs)
	fmt.Printf("avg run length:     %.1f records (%.2fx memory)\n",
		stats.AvgRunLength, stats.AvgRunLength/float64(memory))
	fmt.Printf("merge passes:       %d\n", stats.MergePasses)
	for _, ph := range stats.Phases { // "generate", then "merge"
		fmt.Printf("%-19s %v\n", ph.Name+" phase:", ph.Wall.Round(1e6))
	}

	// Compare with classic replacement selection on the same input.
	cfg.Policy = "rs"
	rsStats := sortRecords(recs, cfg)
	fmt.Printf("\nclassic RS on the same input: %d runs (%.2fx memory), %d merge passes\n",
		rsStats.Runs, rsStats.AvgRunLength/float64(memory), rsStats.MergePasses)
	fmt.Printf("2WRS generated %.1fx longer runs\n",
		stats.AvgRunLength/rsStats.AvgRunLength)
}

// sortRecords sorts recs by key under cfg and returns the statistics.
func sortRecords(recs []repro.Record, cfg repro.Config) repro.Stats {
	s, err := repro.New(repro.Record.Less, repro.WithConfig(cfg))
	if err != nil {
		log.Fatal(err)
	}
	_, stats, err := s.SortSlice(context.Background(), recs)
	if err != nil {
		log.Fatal(err)
	}
	return stats
}
