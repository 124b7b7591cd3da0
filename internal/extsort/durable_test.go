package extsort

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// TestDurableMatchesPlain is the oracle for "a durable boundary does not
// disturb the generator": for every policy, the adaptive auto included,
// under each name policy.Parse accepts for one (the alg_ cells spell the
// paper's three), on each of the paper's six input shapes, keyed and
// comparator-only, an uninterrupted durable pass must write exactly the
// plain pass's files — the i-th run of one equals the i-th run of the
// other, file by file and name by name — and as many raw spill bytes: a
// boundary writes no file of its own.
func TestDurableMatchesPlain(t *testing.T) {
	const n, m = 6000, 150
	for _, name := range []string{"2wrs", "rs", "alternating", "quick", "auto", "alg_rs", "alg_lss", "alg_2wrs"} {
		pol, err := policy.Parse(strings.TrimPrefix(name, "alg_"))
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range gen.Kinds {
			for _, keyed := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%v/keyed=%v", name, kind, keyed), func(t *testing.T) {
					recs := gen.Generate(gen.Config{Kind: kind, N: n, Seed: 31, Noise: 50})
					ops := RecordOps()
					if !keyed {
						ops.KeyCodec = nil
					}
					cfg := Config{Policy: pol, Memory: m}
					var (
						sums [2][]string
						raw  [2]int64
					)
					for i, durable := range []bool{false, true} {
						cfg.Manifest = durable
						fs := vfs.NewMemFS()
						rset, err := GenerateRuns(stream.NewSliceReader(recs), fs, cfg, ops)
						if err != nil {
							t.Fatalf("durable=%v: %v", durable, err)
						}
						sums[i] = runFileSums(t, rset.spill, rset.Runs())
						raw[i] = rset.Stats().IO.RawBytesWritten
						if err := rset.Discard(); err != nil {
							t.Fatal(err)
						}
						if names, _ := fs.Names(); len(names) != 0 {
							t.Errorf("durable=%v: files left after Discard: %v", durable, names)
						}
					}
					if len(sums[0]) == 0 || !slices.Equal(sums[0], sums[1]) {
						t.Fatalf("durable run files differ from plain:\n plain   %v\n durable %v", sums[0], sums[1])
					}
					if raw[0] != raw[1] {
						t.Fatalf("the durable pass wrote %d raw spill bytes, the plain one %d", raw[1], raw[0])
					}
				})
			}
		}
	}
}

// TestDurableBoundaryAllocs pins what a run boundary may allocate in a
// durable sort, measured on vfs.Discard, so that the measurement sees the
// sort's own allocations and not the file bytes a MemFS would hold. A
// boundary costs a manifest line and the run's own stream writers — not a
// second heap arena (32 B × M) nor a []T of the M records held, which is
// what a drain-and-refill boundary allocated every time. The budget is half
// the smaller of those.
func TestDurableBoundaryAllocs(t *testing.T) {
	const m = 1 << 13
	const budget = m * 16 / 2
	measure := func(n int) (uint64, int) {
		recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 7})
		cfg := Config{Policy: policy.TwoWayRS, Memory: m, Manifest: true, Parallelism: 1}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rset, err := GenerateRuns(stream.NewSliceReader(recs), vfs.Discard{}, cfg, RecordOps())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, len(rset.Runs())
	}
	smallBytes, smallRuns := measure(8 * m)
	largeBytes, largeRuns := measure(40 * m)
	extra := largeRuns - smallRuns
	if extra < 8 {
		t.Fatalf("%d and %d runs: the two inputs must differ by several boundaries", smallRuns, largeRuns)
	}
	per := int64(largeBytes-smallBytes) / int64(extra)
	t.Logf("%d extra boundaries, %d B allocated per boundary (budget %d)", extra, per, budget)
	if per > budget {
		t.Fatalf("a run boundary allocates %d B, budget %d B: something M-sized is allocated per run", per, budget)
	}
}

// BenchmarkDurableTax prices durability on the generation pass alone, every
// pass a sequential GenerateRuns. "tax" is a durable pass over a plain one:
// what is left of it is a hardware CRC per spilled element and a manifest
// line per boundary. "resume_half" is a durable pass killed at half its
// input plus the Resume that finishes it, over an uninterrupted durable
// pass: what a crash costs, the replay of the recovered prefix included.
func BenchmarkDurableTax(b *testing.B) {
	for _, m := range []int{1 << 14, 1 << 16} {
		for _, pol := range []policy.Kind{policy.TwoWayRS, policy.RS} {
			b.Run(fmt.Sprintf("%v/M=%d", pol, m), func(b *testing.B) {
				recs := gen.Generate(gen.Config{Kind: gen.Random, N: 16 * m, Seed: 11})
				var wall [3]time.Duration
				// pass times one GenerateRuns into wall[j]; a killed pass
				// leaves its state on fs for the next.
				pass := func(j int, src stream.Reader[record.Record], fs vfs.FS, cfg Config) {
					start := time.Now()
					rset, err := GenerateRuns(src, fs, cfg, RecordOps())
					wall[j] += time.Since(start)
					if errors.Is(err, errSrcKilled) {
						return
					}
					if err != nil {
						b.Fatal(err)
					}
					rset.Discard()
				}
				for i := 0; i < b.N; i++ {
					cfg := Config{Policy: pol, Memory: m, Parallelism: 1}
					pass(0, stream.NewSliceReader(recs), vfs.NewMemFS(), cfg)
					cfg.Manifest = true
					pass(1, stream.NewSliceReader(recs), vfs.NewMemFS(), cfg)
					fs := vfs.NewMemFS()
					pass(2, &killedReader[record.Record]{vals: recs, failAt: int64(len(recs) / 2)}, fs, cfg)
					cfg.Resume = true
					pass(2, stream.NewSliceReader(recs), fs, cfg)
				}
				b.ReportMetric(wall[1].Seconds()/wall[0].Seconds(), "tax")
				b.ReportMetric(wall[2].Seconds()/wall[1].Seconds(), "resume_half")
			})
		}
	}
}
