package extsort

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// TestSpillSpansSumToStats traces sorts on every backend, under 2WRS —
// whose chain files a framed backend reads a whole page slot at a time —
// and quick, on one and two workers: the spill_write spans' bytes sum to
// Stats.IO.StoredBytesWritten and the spill_read spans' to StoredBytesRead,
// since both count every byte the file system moved.
func TestSpillSpansSumToStats(t *testing.T) {
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: 20000, Seed: 5})
	for _, comp := range storage.Compressions() {
		for _, kind := range []policy.Kind{policy.TwoWayRS, policy.Quick} {
			for _, par := range []int{1, 2} {
				name := fmt.Sprintf("%s/%v/parallelism=%d", comp, kind, par)
				tr := obs.New()
				cfg := Config{Policy: kind, Memory: 500, FanIn: 3, Parallelism: par, Trace: tr,
					Storage: storage.Config{Compression: comp}}
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
}
