package extsort

import (
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

// TestDurableMatchesPlain is the oracle for "a checkpoint does not disturb
// the generator": for every policy, the adaptive auto included, under each
// name policy.Parse accepts for one (the alg_ cells spell the paper's
// three), on each of the paper's six input shapes, keyed and
// comparator-only, an uninterrupted durable pass must write the plain
// pass's run files byte for byte — the
// i-th run of one equals the i-th run of the other, file by file. It also
// checks what the boundary hook owes the file system: no snapshot outlives
// the commit.
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
					var sums [2][]string
					for i, durable := range []bool{false, true} {
						cfg.Manifest = durable
						fs := vfs.NewMemFS()
						rset, err := GenerateRuns(record.NewSliceReader(recs), fs, cfg, ops)
						if err != nil {
							t.Fatalf("durable=%v: %v", durable, err)
						}
						sums[i] = runFileSums(t, fs, rset.Runs())
						left, _ := fs.Names()
						for _, file := range left {
							if strings.HasSuffix(file, "-carry") {
								t.Errorf("snapshot %s outlived the commit", file)
							}
						}
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
				})
			}
		}
	}
}

// discardFS accepts every write and keeps nothing, so an allocation
// measurement sees the sort's own allocations and not the file bytes a
// MemFS would hold. Run generation never reads its spill files back.
type discardFS struct{ vfs.FS }

type discardFile struct{ vfs.File }

func (discardFS) Create(string) (vfs.File, error)          { return discardFile{}, nil }
func (discardFS) Remove(string) error                      { return nil }
func (discardFile) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (discardFile) Close() error                           { return nil }

// TestDurableBoundaryAllocs pins what a run boundary may allocate in a
// durable sort. The checkpoint is taken in place, so a boundary costs the
// snapshot writer's page buffer, a manifest line and the run's own stream
// writers — not a second heap arena (32 B × M) nor a []T of the M records
// held, which is what a drain-and-refill boundary allocated every time.
// The budget is half the smaller of those.
func TestDurableBoundaryAllocs(t *testing.T) {
	const m = 1 << 13
	const budget = m * 16 / 2
	measure := func(n int) (uint64, int) {
		recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 7})
		cfg := Config{Policy: policy.TwoWayRS, Memory: m, Manifest: true, Parallelism: 1}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		rset, err := GenerateRuns(record.NewSliceReader(recs), discardFS{}, cfg, RecordOps())
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

// BenchmarkDurableTax prices durability on the generation pass alone:
// the same sequential GenerateRuns with and without a manifest, reporting
// durable time over plain time as "tax". What is left of the tax is one
// snapshot of about M records per boundary, a hardware CRC per spilled
// element and a manifest line.
func BenchmarkDurableTax(b *testing.B) {
	for _, m := range []int{1 << 14, 1 << 16} {
		for _, pol := range []policy.Kind{policy.TwoWayRS, policy.RS} {
			b.Run(fmt.Sprintf("%v/M=%d", pol, m), func(b *testing.B) {
				recs := gen.Generate(gen.Config{Kind: gen.Random, N: 16 * m, Seed: 11})
				var wall [2]time.Duration
				for i := 0; i < b.N; i++ {
					for j, durable := range []bool{false, true} {
						cfg := Config{Policy: pol, Memory: m, Manifest: durable, Parallelism: 1}
						start := time.Now()
						rset, err := GenerateRuns(stream.NewSliceReader(recs), vfs.NewMemFS(), cfg, RecordOps())
						wall[j] += time.Since(start)
						if err != nil {
							b.Fatal(err)
						}
						rset.Discard()
					}
				}
				b.ReportMetric(wall[1].Seconds()/wall[0].Seconds(), "tax")
			})
		}
	}
}
