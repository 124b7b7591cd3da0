package extsort

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
)

// TestAutoPolicyEndToEnd drives the auto policy through the full driver:
// sorted output and the policy name in Stats.
func TestAutoPolicyEndToEnd(t *testing.T) {
	const n, m = 30000, 500
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: n, Seed: 23, Noise: 1000})
	out, stats, err := sortSlice(recs, Config{Policy: policy.Auto, Memory: m}, RecordOps())
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
