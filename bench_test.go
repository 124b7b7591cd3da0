// End-to-end sort benchmarks per policy and dataset, plus the ablation
// benches for the design decisions called out in DESIGN.md §7. The paper's
// tables and figures are not benchmarks: cmd/paper regenerates them and
// EXPERIMENTS.md records them.
package repro

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/heap"
	"repro/internal/iosim"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// --- Sorts per policy and dataset ---

func benchRunGen(b *testing.B, policy string, kind DatasetKind) {
	b.Helper()
	recs := Dataset(kind, 100_000, 1)
	cfg := DefaultConfig(2_000)
	cfg.Policy = policy
	b.SetBytes(int64(len(recs) * record.Size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sortRecords(recs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortSlice1M is the headline throughput benchmark the historical
// BENCH_<n>.json reports track: one million records sorted in the paper-style
// external configuration (memory 8192 records — the input is ~122 memory
// loads — with a multi-pass merge).
func BenchmarkSortSlice1M(b *testing.B) {
	recs := Dataset(DatasetRandom, 1_000_000, 42)
	cfg := DefaultConfig(1 << 13)
	b.SetBytes(int64(len(recs) * record.Size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sortRecords(recs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSortRS_Random(b *testing.B)    { benchRunGen(b, "rs", DatasetRandom) }
func BenchmarkSort2WRS_Random(b *testing.B)  { benchRunGen(b, "2wrs", DatasetRandom) }
func BenchmarkSort2WRS_Mixed(b *testing.B)   { benchRunGen(b, "2wrs", DatasetMixedBalanced) }
func BenchmarkSort2WRS_Reverse(b *testing.B) { benchRunGen(b, "2wrs", DatasetReverseSorted) }
func BenchmarkSortLSS_Random(b *testing.B)   { benchRunGen(b, "lss", DatasetRandom) }

// --- Ablations (DESIGN.md §7) ---

// BenchmarkAblationDoubleHeapLayout compares the paper's single-array
// DoubleHeap against two independently allocated heaps of half capacity.
func BenchmarkAblationDoubleHeapLayout(b *testing.B) {
	const cap = 4096
	keys := make([]int64, cap)
	g := gen.New(gen.Config{Kind: gen.Random, N: cap, Seed: 1})
	for i := range keys {
		r, _ := g.Read()
		keys[i] = r.Key
	}
	b.Run("single-array", func(b *testing.B) {
		d := heap.NewDouble(cap, record.Less)
		for i := 0; i < cap/2; i++ {
			d.PushTop(heap.Item[record.Record]{Rec: record.Record{Key: keys[i]}})
			d.PushBottom(heap.Item[record.Record]{Rec: record.Record{Key: -keys[i]}})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it := d.PopTop()
			d.PushTop(it)
			ib := d.PopBottom()
			d.PushBottom(ib)
		}
	})
	b.Run("two-heaps", func(b *testing.B) {
		top := heap.New(cap/2, false, record.Less)
		bottom := heap.New(cap/2, true, record.Less)
		for i := 0; i < cap/2; i++ {
			top.Push(heap.Item[record.Record]{Rec: record.Record{Key: keys[i]}})
			bottom.Push(heap.Item[record.Record]{Rec: record.Record{Key: -keys[i]}})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it := top.Pop()
			top.Push(it)
			ib := bottom.Pop()
			bottom.Push(ib)
		}
	})
}

// BenchmarkAblationVictimBuffer quantifies the victim buffer's value on the
// mixed dataset: number of runs with and without it (reported as runs/op).
func BenchmarkAblationVictimBuffer(b *testing.B) {
	recs := gen.Generate(gen.Config{Kind: gen.MixedBalanced, N: 50_000, Seed: 1, Noise: 100})
	run := func(b *testing.B, setup core.BufferSetup) {
		b.Helper()
		var runs int
		for i := 0; i < b.N; i++ {
			fs := vfs.NewMemFS()
			res, err := policy.Generate(policy.TwoWayRS, stream.NewSliceReader(recs), runio.RecordEmitter(fs, "v"),
				policy.Config{Memory: 1_000, TWRS: core.Config{
					Setup: setup, BufferFrac: 0.02,
					Input: core.InMean, Output: core.OutRandom, Seed: 1,
				}}, record.Key)
			if err != nil {
				b.Fatal(err)
			}
			runs = len(res.Runs)
		}
		b.ReportMetric(float64(runs), "runs")
	}
	b.Run("with-victim", func(b *testing.B) { run(b, core.BothBuffers) })
	b.Run("without-victim", func(b *testing.B) { run(b, core.InputBufferOnly) })
}

// BenchmarkAblationBackwardFormat compares reading a decreasing stream
// ascending via the Appendix A backward format (forward sequential reads)
// against naively reading a forward-written descending file backwards,
// measured in simulated disk time per op.
func BenchmarkAblationBackwardFormat(b *testing.B) {
	const n = 50_000
	b.Run("backward-format", func(b *testing.B) {
		disk := iosim.NewDisk(iosim.Defaults2010())
		fs := iosim.NewFS(vfs.NewMemFS(), disk)
		w, err := runio.NewBackwardWriter(storage.NewRaw(fs), "b", 0, 64, codec.Record16{}, record.Less)
		if err != nil {
			b.Fatal(err)
		}
		desc := make([]record.Record, n)
		for i := range desc {
			desc[i] = record.Record{Key: int64(n - i)}
		}
		if err := w.WriteBatch(desc); err != nil {
			b.Fatal(err)
		}
		w.Close()
		files := w.Files()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, _ := runio.NewBackwardReader(storage.NewRaw(fs), "b", files, 1<<16, codec.Record16{})
			if _, err := stream.ReadAllCancel[record.Record](r, nil); err != nil {
				b.Fatal(err)
			}
			r.Close()
		}
		b.ReportMetric(float64(disk.Elapsed().Milliseconds())/float64(b.N), "simMs/op")
	})
	b.Run("reverse-read", func(b *testing.B) {
		disk := iosim.NewDisk(iosim.Defaults2010())
		fs := iosim.NewFS(vfs.NewMemFS(), disk)
		f, _ := fs.Create("fwd")
		buf := make([]byte, record.Size)
		for i := 0; i < n; i++ {
			record.Encode(buf, record.Record{Key: int64(n - i)})
			f.WriteAt(buf, int64(i*record.Size))
		}
		f.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g, _ := fs.Open("fwd")
			// Read page-sized chunks from the end toward the start: every
			// read is a backward jump, i.e. a seek.
			page := make([]byte, 4096)
			for off := int64(n*record.Size) - 4096; off >= 0; off -= 4096 {
				if _, err := g.ReadAt(page, off); err != nil {
					b.Fatal(err)
				}
			}
			g.Close()
		}
		b.ReportMetric(float64(disk.Elapsed().Milliseconds())/float64(b.N), "simMs/op")
	})
}
