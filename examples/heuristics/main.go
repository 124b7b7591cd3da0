// heuristics sweeps the 2WRS insertion and output heuristics over the
// paper's six datasets and prints the resulting run counts — a compact,
// runnable version of the §5.2 analysis that shows why the paper recommends
// Mean + Random with both buffers.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const (
		n      = 200_000
		memory = 2_000
	)
	kinds := []repro.DatasetKind{
		repro.DatasetSorted, repro.DatasetReverseSorted, repro.DatasetAlternating,
		repro.DatasetRandom, repro.DatasetMixedBalanced, repro.DatasetMixedImbalanced,
	}
	inputs := []repro.InputHeuristic{
		repro.InputRandom, repro.InputAlternate, repro.InputMean,
		repro.InputMedian, repro.InputUseful, repro.InputBalancing,
	}

	fmt.Printf("runs generated by 2WRS (memory=%d, n=%d, both buffers at 2%%, Random output)\n\n", memory, n)
	fmt.Printf("%-11s", "input \\ data")
	for _, k := range kinds {
		fmt.Printf("  %-11v", k)
	}
	fmt.Println()
	for _, in := range inputs {
		fmt.Printf("%-11v", in)
		for _, k := range kinds {
			recs := repro.Dataset(k, n, 1)
			cfg := repro.DefaultConfig(memory)
			cfg.Input = in
			_, stats, err := repro.SortSlice(recs, cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-11d", stats.Runs)
		}
		fmt.Println()
	}

	// Classic RS for reference.
	fmt.Printf("\n%-11s", "classic RS")
	for _, k := range kinds {
		recs := repro.Dataset(k, n, 1)
		cfg := repro.DefaultConfig(memory)
		cfg.Policy = "rs"
		_, stats, err := repro.SortSlice(recs, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-11d", stats.Runs)
	}
	fmt.Println()
	fmt.Println("\nfewer runs = faster merge; the Mean row matches the paper's recommendation")
}
