package extsort

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// TestSpillSpansSumToStats traces sorts under 2WRS and quick, on one and
// two workers: the spill_write spans' bytes sum to
// Stats.IO.StoredBytesWritten and the spill_read spans' to StoredBytesRead,
// since both count every byte the file system moved.
func TestSpillSpansSumToStats(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: 20000, Seed: 5})
	for _, kind := range []policy.Kind{policy.TwoWayRS, policy.Quick} {
		for _, par := range []int{1, 2} {
			name := fmt.Sprintf("%v/parallelism=%d", kind, par)
			tr := obs.New()
			cfg := Config{Policy: kind, Memory: 500, FanIn: 3, Parallelism: par, Trace: tr}
			var out stream.SliceWriter[record.Record]
			stats, err := Sort(stream.NewSliceReader(recs), &out, vfs.NewMemFS(), cfg, RecordOps())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sums := map[string]int64{}
			for _, sp := range tr.Spans() {
				for _, a := range sp.Attrs {
					if n, ok := a.Value().(int64); ok && a.Key == "bytes" {
						sums[sp.Name] += n
					}
				}
			}
			if sums["spill_write"] != stats.IO.StoredBytesWritten || sums["spill_read"] != stats.IO.StoredBytesRead {
				t.Errorf("%s: spans wrote %d and read %d bytes; Stats.IO stored %d and read %d", name,
					sums["spill_write"], sums["spill_read"], stats.IO.StoredBytesWritten, stats.IO.StoredBytesRead)
			}
		}
	}
}

// TestMergeFinalSpanAttrs: the merge_final span says whether the final
// merge's tree ran on a producer goroutine — at Parallelism 2, not at 1 —
// and, when it did, how many chunks the consumer took — ⌈N / (leaves ×
// 256)⌉, the last one short and carrying the end — and how long it waited.
func TestMergeFinalSpanAttrs(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 20000, Seed: 5})
	for _, par := range []int{1, 2} {
		tr := obs.New()
		cfg := Config{Policy: policy.Quick, Memory: 2000, Parallelism: par, Trace: tr}
		if _, err := Sort(stream.NewSliceReader(recs), &stream.SliceWriter[record.Record]{}, vfs.NewMemFS(), cfg, RecordOps()); err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		attrs := map[string]any{}
		for _, sp := range tr.Spans() {
			if sp.Name == "merge_final" {
				for _, a := range sp.Attrs {
					attrs[a.Key] = a.Value()
				}
			}
		}
		want := map[string]any{"width": int64(10), "pipelined": false}
		if par == 2 {
			want["pipelined"], want["chunks"] = true, int64((20000+10*256-1)/(10*256))
			if _, ok := attrs["wait_us"].(int64); !ok {
				t.Errorf("parallelism 2: merge_final carries no wait_us: %v", attrs)
			}
			delete(attrs, "wait_us")
		}
		if fmt.Sprint(attrs) != fmt.Sprint(want) {
			t.Errorf("parallelism %d: merge_final carries %v, want %v", par, attrs, want)
		}
	}
}

// TestLaneSpanAttrs: each lane span of a two-lane sort says how many blocks
// its lane read from the feed — its share of ⌈N / dealLen⌉ dealt in turn —
// and how long it waited for them.
func TestLaneSpanAttrs(t *testing.T) {
	const n = 100_000
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 5})
	tr := obs.New()
	cfg := Config{Policy: policy.Quick, Memory: 2 * laneMax, Parallelism: 2, Trace: tr}
	if cfg.Lanes() != 2 {
		t.Fatalf("the sort runs %d lanes, want 2", cfg.Lanes())
	}
	if _, err := Sort(stream.NewSliceReader(recs), &stream.SliceWriter[record.Record]{}, vfs.NewMemFS(), cfg, RecordOps()); err != nil {
		t.Fatal(err)
	}
	blocks := (n + cfg.dealLen() - 1) / cfg.dealLen()
	lanes := 0
	for _, sp := range tr.Spans() {
		if sp.Name != "lane" {
			continue
		}
		attrs := map[string]any{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value()
		}
		lane, _ := attrs["lane"].(int64)
		if want := int64((blocks + 1 - int(lane)) / 2); attrs["blocks"] != want {
			t.Errorf("lane %d read %v blocks, want %d", lane, attrs["blocks"], want)
		}
		if _, ok := attrs["wait_us"].(int64); !ok {
			t.Errorf("lane %d carries no wait_us: %v", lane, attrs)
		}
		lanes++
	}
	if lanes != 2 {
		t.Fatalf("the trace holds %d lane spans, want 2", lanes)
	}
}
