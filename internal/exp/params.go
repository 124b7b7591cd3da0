// Package exp is the experiment harness: every table and figure of the
// paper's evaluation (Chapters 5 and 6, plus the §3.6 model figures and the
// Table 2.1 polyphase example) is one entry of Artefacts, run at
// configurable scale by cmd/paper and recorded in EXPERIMENTS.md.
//
// The thesis runs with 100K records of memory over 25M-record inputs on a
// 2010 SATA drive; the harness defaults to a proportional small scale that
// finishes in seconds and preserves every reported ratio, and exposes the
// paper's full scale behind Params. Time experiments run on the simulated
// disk of internal/iosim (see DESIGN.md §2 for the substitution argument).
package exp

import "fmt"

// Params sets the scale of all experiments.
type Params struct {
	// Memory is the sorting memory in records (thesis: 100_000).
	Memory int
	// Input is the input size in records for the Chapter 5 run-length and
	// ANOVA experiments (thesis: 25_000_000).
	Input int
	// Seeds is the number of replicated executions per configuration in
	// the factorial experiment (thesis: 5).
	Seeds int
	// TimeMemory is the memory for Chapter 6 experiments with fixed
	// memory (thesis: 10_000 records, "10k").
	TimeMemory int
	// TimeInput is the input size for Chapter 6 experiments with fixed
	// input (thesis: 1 GB = 268M 4-byte records; proportionally scaled).
	TimeInput int
	// FanInRuns and FanInRunRecords shape the Fig 6.1 experiment
	// (thesis: 400 runs of 16 MB each); FanInMergeMemory is the merge
	// buffer memory in bytes for that experiment.
	FanInRuns        int
	FanInRunRecords  int // records per run
	FanInMergeMemory int // merge buffer memory in bytes
}

// Tiny is the scale of the package's tests and of EXPERIMENTS.md (the whole
// list renders in about fifteen seconds).
func Tiny() Params {
	return Params{
		Memory:           200,
		Input:            10_000,
		Seeds:            2,
		TimeMemory:       4_000,
		TimeInput:        400_000,
		FanInRuns:        40,
		FanInRunRecords:  20_000,
		FanInMergeMemory: 256 << 10,
	}
}

// Small is cmd/paper's default scale: 1/100 of the paper in memory,
// preserving the paper's memory:input ratios.
func Small() Params {
	return Params{
		Memory:           1_000,
		Input:            250_000,
		Seeds:            3,
		TimeMemory:       10_000,
		TimeInput:        2_000_000,
		FanInRuns:        200,
		FanInRunRecords:  50_000,
		FanInMergeMemory: 2 << 20,
	}
}

// Paper is the thesis' own scale (hours of runtime).
func Paper() Params {
	return Params{
		Memory:           100_000,
		Input:            25_000_000,
		Seeds:            5,
		TimeMemory:       10_000,
		TimeInput:        268_000_000,
		FanInRuns:        400,
		FanInRunRecords:  4_000_000,
		FanInMergeMemory: 16 << 20,
	}
}

// Sections returns the alternating-dataset section count at this scale,
// preserving the thesis' proportions: 50 sections over 25M records with
// 100K memory means each monotone section is 5× the memory size.
func (p Params) Sections() int {
	s := p.Input / (5 * p.Memory)
	if s < 2 {
		s = 2
	}
	return s
}

// ParseScale maps a CLI name to a Params value.
func ParseScale(s string) (Params, error) {
	switch s {
	case "tiny":
		return Tiny(), nil
	case "small":
		return Small(), nil
	case "paper":
		return Paper(), nil
	}
	return Params{}, fmt.Errorf("exp: unknown scale %q (want tiny, small or paper)", s)
}
