package exp

import "fmt"

// Polyphase merge (§2.1.2, Gilstad 1960): k+1 tapes, one initially empty.
// Each step performs k-way merges of one run from every non-empty tape into
// the output tape until some input tape empties; that tape becomes the next
// output. The process ends when a single run remains. Only the run counts
// are simulated here — Table 2.1 — no records move.

// PolyphaseStep describes the tape state after one polyphase step, matching
// the rows of Table 2.1.
type PolyphaseStep struct {
	// RunsPerTape[i] is the number of runs on tape i after the step.
	RunsPerTape []int
}

// PolyphaseCounts simulates the run-count evolution of a polyphase merge
// without touching data, reproducing Table 2.1. initial gives the starting
// run counts per tape; exactly one entry should be zero (the output tape).
// The returned slice includes the initial state as step 0.
func PolyphaseCounts(initial []int) ([]PolyphaseStep, error) {
	counts := append([]int(nil), initial...)
	out := -1
	for i, c := range counts {
		if c == 0 {
			out = i
			break
		}
	}
	if out == -1 {
		return nil, fmt.Errorf("exp: polyphase needs an empty output tape, got %v", initial)
	}
	steps := []PolyphaseStep{{RunsPerTape: append([]int(nil), counts...)}}
	for {
		total, nonEmpty := 0, 0
		for _, c := range counts {
			total += c
			if c > 0 {
				nonEmpty++
			}
		}
		if total <= 1 {
			return steps, nil
		}
		// Number of merge operations this step: the smallest non-empty
		// input tape count (the step ends when a tape empties).
		s := 0
		for i, c := range counts {
			if i == out || c == 0 {
				continue
			}
			if s == 0 || c < s {
				s = c
			}
		}
		if s == 0 {
			// Only the output tape holds runs; rotate it into an input.
			return steps, fmt.Errorf("exp: polyphase stuck with counts %v", counts)
		}
		// Every tape that was non-empty loses s runs; the first one that
		// thereby empties becomes the next output tape.
		next := -1
		for i := range counts {
			if i == out || counts[i] == 0 {
				continue
			}
			counts[i] -= s
			if counts[i] == 0 && next == -1 {
				next = i
			}
		}
		counts[out] += s
		steps = append(steps, PolyphaseStep{RunsPerTape: append([]int(nil), counts...)})
		out = next
	}
}

// Table21Polyphase reproduces the polyphase run-count table.
func Table21Polyphase() ([]PolyphaseStep, error) {
	return PolyphaseCounts([]int{8, 10, 3, 0, 8, 11})
}

// RenderPolyphase formats the Table 2.1 steps.
func RenderPolyphase(steps []PolyphaseStep) string {
	if len(steps) == 0 {
		return ""
	}
	headers := []string{"Step"}
	for i := range steps[0].RunsPerTape {
		headers = append(headers, fmt.Sprintf("Tape %d", i+1))
	}
	var rows [][]string
	for i, s := range steps {
		row := []string{fmt.Sprintf("%d", i)}
		for _, c := range s.RunsPerTape {
			row = append(row, fmt.Sprintf("%d", c))
		}
		rows = append(rows, row)
	}
	return RenderTable(headers, rows)
}
