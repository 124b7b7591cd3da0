package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// ratioFor runs 2WRS and returns the average run length relative to memory.
func ratioFor(t *testing.T, recs []record.Record, cfg Config) float64 {
	t.Helper()
	fs := vfs.NewMemFS()
	res, err := generate(stream.NewSliceReader(recs), runio.RecordEmitter(fs, "t"), cfg, record.Key)
	if err != nil {
		t.Fatal(err)
	}
	return res.AvgRunLength() / float64(cfg.Memory)
}

// TestRandomRunLengthBands pins the §5.2.4 behaviour on random input: run
// length ≈ 2× memory with tiny buffers, degrading linearly with the buffer
// fraction (Fig 5.4: 2.0 at ≈0%, ≈1.6 at 20%).
func TestRandomRunLengthBands(t *testing.T) {
	const n, m = 40000, 500
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 5})
	cases := []struct {
		frac   float64
		lo, hi float64
	}{
		{0, 1.7, 2.3},
		{0.02, 1.7, 2.3},
		{0.2, 1.35, 1.85},
	}
	for _, c := range cases {
		got := ratioFor(t, recs, cfgFor(m, BothBuffers, c.frac, InMean, OutRandom))
		if got < c.lo || got > c.hi {
			t.Errorf("frac=%v: run length %.2fx memory, want in [%v, %v]", c.frac, got, c.lo, c.hi)
		}
	}
}

// TestRandomRunLengthHeuristicInsensitive pins the Table 5.2 observation
// that on random input the heuristics barely matter: every input heuristic
// achieves at least RS-level run lengths.
func TestRandomRunLengthHeuristicInsensitive(t *testing.T) {
	const n, m = 40000, 500
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 5})
	for _, in := range InputHeuristics {
		got := ratioFor(t, recs, cfgFor(m, BothBuffers, 0.02, in, OutRandom))
		if got < 1.6 {
			t.Errorf("input heuristic %v: run length %.2fx memory, want ≥ 1.6", in, got)
		}
	}
}

// TestOverlapRunsMergeCleanly exercises the non-concatenable path end to
// end: runs whose stream ranges overlap expose each stream as a separate
// sorted merge input.
func TestOverlapRunsMergeCleanly(t *testing.T) {
	const n, m = 10000, 200
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 3})
	fs := vfs.NewMemFS()
	res, err := generate(stream.NewSliceReader(recs), runio.RecordEmitter(fs, "t"),
		cfgFor(m, BothBuffers, 0.02, InRandom, OutRandom), record.Key)
	if err != nil {
		t.Fatal(err)
	}
	if res.OverlapRuns == 0 {
		t.Skip("expected overlapping runs with the Random heuristic at this scale")
	}
	inputs := 0
	for _, run := range res.Runs {
		ins := streams(run)
		if !run.Concatenable && len(ins) < 2 && run.Records > 1 {
			// A single-segment run is always concatenable, so a
			// non-concatenable one must expose several inputs.
			t.Fatalf("non-concatenable run with %d inputs", len(ins))
		}
		inputs += len(ins)
	}
	if inputs < len(res.Runs) {
		t.Fatalf("total inputs %d < runs %d", inputs, len(res.Runs))
	}
	verifyRuns(t, fs, res.Runs, recs)
}
