package extsort

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// TestAllocationsPerRun pins what one more run costs a sort in allocations:
// the difference between a quick sort of 42 memory-loads and one of 2, over
// the 40 runs between them, writing and reading each. A run is about 11:
// its name, file, writer, Run, backend writer and reader, and merge reader,
// pool blocks among them; a run's single file, its one-piece list and its
// first open handle cost none of their own.
func TestAllocationsPerRun(t *testing.T) {
	const m = 1 << 10
	count := func(loads int) float64 {
		recs := gen.Generate(gen.Config{Kind: gen.Random, N: loads * m, Seed: 1})
		out := stream.SliceWriter[record.Record]{Vals: make([]record.Record, 0, len(recs))}
		return testing.AllocsPerRun(3, func() {
			out.Vals = out.Vals[:0]
			if _, err := Sort[record.Record](stream.NewSliceReader(recs), &out, vfs.NewMemFS(), Config{Policy: policy.Quick, Memory: m}, RecordOps()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if perRun := (count(42) - count(2)) / 40; perRun > 11.5 {
		t.Fatalf("a run costs %.2f allocations, want at most 11.5", perRun)
	}
}
