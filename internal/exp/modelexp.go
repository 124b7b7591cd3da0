package exp

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Fig38 reproduces the §3.6 model figures: the memory density distribution
// at the start of the first `runs` runs for uniform input, plus each run's
// length relative to memory (which converges to 2.0, §3.6.1).
type ModelResult struct {
	RunLengths []float64
	// Densities[r] is the density profile at the start of run r, sampled
	// at SampleXs.
	Densities [][]float64
	SampleXs  []float64
}

// Fig38Model runs the snowplow model for the given number of runs and
// samples the density at `samples` points.
func Fig38Model(runs, samples int) (*ModelResult, error) {
	lengths, snaps, err := model.EstimateRunLengths(model.Config{Cells: 2048}, runs)
	if err != nil {
		return nil, err
	}
	res := &ModelResult{RunLengths: lengths}
	for s := 0; s < samples; s++ {
		res.SampleXs = append(res.SampleXs, (float64(s)+0.5)/float64(samples))
	}
	for _, snap := range snaps {
		row := make([]float64, samples)
		stride := len(snap) / samples
		for s := 0; s < samples; s++ {
			row[s] = snap[s*stride+stride/2]
		}
		res.Densities = append(res.Densities, row)
	}
	return res, nil
}

// RenderModel formats the model output: run lengths plus a coarse density
// table (the numeric form of Fig 3.8's four panels).
func RenderModel(r *ModelResult) string {
	var sb strings.Builder
	sb.WriteString("run lengths (x memory): ")
	for i, l := range r.RunLengths {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%.3f", l)
	}
	sb.WriteString("\n\nmemory density at run starts (Fig 3.8):\n")
	headers := []string{"x"}
	for run := range r.Densities {
		headers = append(headers, fmt.Sprintf("run %d", run+1))
	}
	var rows [][]string
	for s, x := range r.SampleXs {
		row := []string{fmt.Sprintf("%.2f", x)}
		for run := range r.Densities {
			row = append(row, fmt.Sprintf("%.3f", r.Densities[run][s]))
		}
		rows = append(rows, row)
	}
	sb.WriteString(RenderTable(headers, rows))
	return sb.String()
}
