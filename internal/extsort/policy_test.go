package extsort

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// TestRunSetRecordsPolicies checks that every run in a RunSet is attributed
// to the generator that produced it.
func TestRunSetRecordsPolicies(t *testing.T) {
	const n, m = 20000, 500
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 22, Noise: 1000})
	for _, cfg := range []Config{
		{Policy: policy.Alternating, Memory: m},
		{Policy: policy.Quick, Memory: m},
		{Memory: m}, // the zero Kind: 2wrs
	} {
		rset, err := GenerateRuns(stream.NewSliceReader(recs), vfs.NewMemFS(), cfg, RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		pols := rset.RunPolicies()
		if len(pols) != len(rset.Runs()) {
			t.Fatalf("%d runs but %d policy entries", len(rset.Runs()), len(pols))
		}
		want := cfg.Policy.String()
		for i, p := range pols {
			if p != want {
				t.Fatalf("run %d attributed to %q, want %q", i, p, want)
			}
		}
		if err := rset.Discard(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAutoPolicyEndToEnd drives the adaptive policy through the full
// driver: sorted output, per-run attribution, and the policy name in
// Stats.
func TestAutoPolicyEndToEnd(t *testing.T) {
	const n, m = 30000, 500
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: n, Seed: 23, Noise: 1000})
	out, stats, err := SortSlice(recs, Config{Policy: policy.Auto, Memory: m}, RecordOps())
	if err != nil {
		t.Fatal(err)
	}
	if !record.IsSorted(out) || len(out) != n {
		t.Fatalf("auto policy output unsorted or truncated (%d records)", len(out))
	}
	if stats.Policy != "auto" {
		t.Fatalf("Stats.Policy = %q, want auto", stats.Policy)
	}
}
