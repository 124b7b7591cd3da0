package exp

import (
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/policy"
)

// Table 5.13 of the thesis (Table 1 of the VLDB paper): average run length
// relative to memory for RS and three 2WRS configurations over the six
// input distributions. All 2WRS configurations use Mean input and Random
// output; they differ in buffers:
//
//	cfg 1: input buffer only, 0.02% of memory
//	cfg 2: both buffers, 20% of memory
//	cfg 3: both buffers, 2% of memory (the recommended §5.3 configuration)

// RunLengthRow is one row of Table 5.13.
type RunLengthRow struct {
	Kind gen.Kind // the input dataset
	// Ratio[i] is the avg run length / memory for column i (RS, cfg1,
	// cfg2, cfg3); Runs[i] is the corresponding run count ("inf" rows have
	// Runs[i] == 1).
	Ratio [4]float64
	Runs  [4]int // run counts, per column as Ratio
}

// table513Configs returns the three 2WRS configurations.
func table513Configs(memory int) []core.Config {
	return []core.Config{
		{Memory: memory, Setup: core.InputBufferOnly, BufferFrac: 0.0002, Input: core.InMean, Output: core.OutRandom, Seed: 1},
		{Memory: memory, Setup: core.BothBuffers, BufferFrac: 0.2, Input: core.InMean, Output: core.OutRandom, Seed: 1},
		{Memory: memory, Setup: core.BothBuffers, BufferFrac: 0.02, Input: core.InMean, Output: core.OutRandom, Seed: 1},
	}
}

// Table513 reproduces the headline run-length table.
func Table513(p Params) ([]RunLengthRow, error) {
	var rows []RunLengthRow
	for _, kind := range gen.Kinds {
		row := RunLengthRow{Kind: kind}
		gcfg := gen.Config{Kind: kind, N: p.Input, Seed: 1, Noise: 1000, Sections: p.Sections()}
		// Column 0: classic RS.
		res, err := generate(policy.RS, gcfg, p, core.Config{})
		if err != nil {
			return nil, err
		}
		row.Ratio[0] = ratio(res, p)
		row.Runs[0] = len(res.Runs)
		// Columns 1-3: the three 2WRS configurations.
		for i, cfg := range table513Configs(p.Memory) {
			tw, err := generate(policy.TwoWayRS, gcfg, p, cfg)
			if err != nil {
				return nil, err
			}
			row.Ratio[i+1] = ratio(tw, p)
			row.Runs[i+1] = len(tw.Runs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable513 formats the rows like the thesis table.
func RenderTable513(rows []RunLengthRow) string {
	headers := []string{"Input", "RS", "2WRS cfg1", "2WRS cfg2", "2WRS cfg3"}
	var out [][]string
	for _, r := range rows {
		cells := []string{r.Kind.String()}
		for i := 0; i < 4; i++ {
			cells = append(cells, FormatRatio(r.Ratio[i], r.Runs[i] == 1))
		}
		out = append(out, cells)
	}
	return RenderTable(headers, out)
}

// BufferSweepPoint is one point of Fig 5.4: run length vs buffer size on
// random input.
type BufferSweepPoint struct {
	FracPercent float64 // the buffers' share of memory, in percent
	Ratio       float64 // the average run length relative to memory
}

// Fig54BufferSweep reproduces the linear run-length/buffer-size relation of
// Fig 5.4 (random input, both buffers).
func Fig54BufferSweep(p Params) ([]BufferSweepPoint, error) {
	var pts []BufferSweepPoint
	for _, frac := range []float64{0.0002, 0.002, 0.02, 0.05, 0.1, 0.2} {
		res, err := generate(policy.TwoWayRS, gen.Config{Kind: gen.Random, N: p.Input, Seed: 1, Noise: 1000}, p, core.Config{
			Memory: p.Memory, Setup: core.BothBuffers, BufferFrac: frac,
			Input: core.InMean, Output: core.OutRandom, Seed: 1,
		})
		if err != nil {
			return nil, err
		}
		pts = append(pts, BufferSweepPoint{FracPercent: frac * 100, Ratio: ratio(res, p)})
	}
	return pts, nil
}
