// Quickstart: sort a file of records that does not fit in the configured
// memory budget, using the paper's recommended 2WRS configuration, and
// print the run-generation statistics that make 2WRS interesting.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	dir, err := os.MkdirTemp("", "twrs-quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// One million records of a "mixed" stream — an ascending trend
	// interleaved with a descending one, the workload databases produce
	// when scanning anticorrelated columns — sorted with memory for only
	// 10k records (1% of the input).
	const n, memory = 1_000_000, 10_000
	in := filepath.Join(dir, "input.rec")
	out := filepath.Join(dir, "sorted.rec")
	if err := repro.WriteFile(in, repro.Dataset(repro.DatasetMixedBalanced, n, 42)); err != nil {
		log.Fatal(err)
	}

	cfg := repro.DefaultConfig(memory)
	cfg.TempDir = filepath.Join(dir, "tmp")
	stats, err := repro.SortFile(in, out, cfg)
	if err != nil {
		log.Fatal(err)
	}

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
	rsStats, err := repro.SortFile(in, filepath.Join(dir, "sorted-rs.rec"), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nclassic RS on the same input: %d runs (%.2fx memory), %d merge passes\n",
		rsStats.Runs, rsStats.AvgRunLength/float64(memory), rsStats.MergePasses)
	fmt.Printf("2WRS generated %.1fx longer runs\n",
		stats.AvgRunLength/rsStats.AvgRunLength)
}
