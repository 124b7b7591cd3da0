package exp

import (
	"fmt"

	"repro/internal/anova"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// The factorial experiment of §5.2: a full cross of
//
//	α buffer setup   (3 levels: input / both / victim)
//	β buffer size    (4 levels: 0.02%, 0.2%, 2%, 20% of memory)
//	γ input heuristic (6 levels)
//	δ output heuristic (5 levels)
//
// over the six input distributions, each configuration replicated with
// several random seeds. The response variable is the number of runs
// generated (the thesis found it models better than the average length).

// BufferFracLevels are the thesis' four β levels.
var BufferFracLevels = []float64{0.0002, 0.002, 0.02, 0.2}

// FactorNames are the greek letters the thesis uses.
var FactorNames = []string{"α", "β", "γ", "δ"}

// factorDefs returns the four factor definitions in thesis order.
func factorDefs() []anova.Factor {
	return []anova.Factor{
		{Name: FactorNames[0], Levels: len(core.BufferSetups)},
		{Name: FactorNames[1], Levels: len(BufferFracLevels)},
		{Name: FactorNames[2], Levels: len(core.InputHeuristics)},
		{Name: FactorNames[3], Levels: len(core.OutputHeuristics)},
	}
}

// factorialDataset executes the full α×β×γ×δ cross, Params.Seeds times
// over, on one input distribution.
func factorialDataset(kind gen.Kind, p Params) (*anova.Dataset, error) {
	ds := &anova.Dataset{Factors: factorDefs()}
	for ai, setup := range core.BufferSetups {
		for bi, frac := range BufferFracLevels {
			for gi, in := range core.InputHeuristics {
				for di, out := range core.OutputHeuristics {
					for seed := 0; seed < p.Seeds; seed++ {
						runs, err := countRuns(kind, p, core.Config{
							Memory:     p.Memory,
							Setup:      setup,
							BufferFrac: frac,
							Input:      in,
							Output:     out,
							Seed:       int64(seed + 1),
						}, int64(seed+1))
						if err != nil {
							return nil, fmt.Errorf("factorial %v α%d β%d γ%d δ%d: %w",
								kind, ai, bi, gi, di, err)
						}
						ds.Add([]int{ai, bi, gi, di}, float64(runs))
					}
				}
			}
		}
	}
	return ds, nil
}

// generate runs one generator — classic RS, or 2WRS under twrs — over the
// dataset gcfg describes with p.Memory records of memory. The run-length
// experiments only count runs and their lengths and never read a run back,
// so the runs are written where nothing is kept (vfs.Discard).
func generate(kind policy.Kind, gcfg gen.Config, p Params, twrs core.Config) (policy.Result, error) {
	em := runio.RecordEmitter(vfs.Discard{}, "r")
	return policy.Generate(kind, stream.AsBatchReader[record.Record](gen.New(gcfg)), em, policy.Config{Memory: p.Memory, TWRS: twrs}, record.Key)
}

// ratio is a pass's average run length relative to memory.
func ratio(res policy.Result, p Params) float64 {
	return float64(res.Records) / float64(len(res.Runs)) / float64(p.Memory)
}

// countRuns executes one 2WRS configuration and returns the number of runs.
func countRuns(kind gen.Kind, p Params, cfg core.Config, seed int64) (int, error) {
	res, err := generate(policy.TwoWayRS, gen.Config{Kind: kind, N: p.Input, Seed: seed, Noise: 1000, Sections: p.Sections()}, p, cfg)
	return len(res.Runs), err
}

// The ANOVA models of §5.2, each a list of terms over the factor indices
// (α = 0, β = 1, γ = 2, δ = 3).
var (
	// MainEffects is the µ + α + β + γ + δ model of Table 5.2.
	MainEffects = [][]int{{0}, {1}, {2}, {3}}
	// SizeOnly is the µ + β model of Table 5.3.
	SizeOnly = [][]int{{1}}
	// AllFirstOrder is the Table 5.4 model: all four main effects and all
	// six pairwise interactions.
	AllFirstOrder = [][]int{{0}, {1}, {2}, {3}, {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	// FirstOrderNoAlpha is the Table 5.5 model: β, γ, δ and their pairwise
	// interactions.
	FirstOrderNoAlpha = [][]int{{1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}}
	// ImbalancedModel is the Table 5.10/5.11 model: main effects plus the
	// α/γ/δ interactions of first and second order.
	ImbalancedModel = [][]int{{0}, {1}, {2}, {3}, {0, 2}, {0, 3}, {2, 3}, {0, 2, 3}}
)

// DropVictimless filters out configurations without a victim buffer
// (α level 0, input-buffer-only), as §5.2.5 does before modelling.
func DropVictimless(levels []int) bool { return levels[0] != 0 }
