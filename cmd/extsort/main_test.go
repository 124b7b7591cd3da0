package main

import (
	"testing"

	"repro"
)

// TestRunLengthReportsLaneMemory holds the summary's run-length line: the
// multiple of the memory budget, and beside it, when the budget ran in
// lanes, the multiple of one lane's memory.
func TestRunLengthReportsLaneMemory(t *testing.T) {
	for _, c := range []struct {
		memory int
		stats  repro.Stats
		want   string
	}{
		{1024, repro.Stats{AvgRunLength: 2048, Lanes: 1, LaneMemory: 1024}, "2048.0 records (2.00x memory)"},
		{1 << 16, repro.Stats{AvgRunLength: 60000, Lanes: 2, LaneMemory: 1 << 15},
			"60000.0 records (0.92x memory, 1.83x lane memory: 2 lanes of 32768)"},
	} {
		if got := runLength(c.memory, c.stats); got != c.want {
			t.Errorf("runLength(%d, %+v) = %q, want %q", c.memory, c.stats, got, c.want)
		}
	}
}
