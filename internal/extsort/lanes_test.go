package extsort

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/iosim"
	"repro/internal/manifest"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// raggedReader serves vals in batches whose lengths cycle through sizes,
// whatever the caller asks for: a source whose batches say nothing about
// where the lanes' blocks begin.
type raggedReader[T any] struct {
	vals  []T
	sizes []int
	i     int
}

func (r *raggedReader[T]) ReadBatch(dst []T) (int, error) {
	if len(r.vals) == 0 {
		return 0, io.EOF
	}
	n := copy(dst[:min(len(dst), r.sizes[r.i%len(r.sizes)])], r.vals)
	r.vals, r.i = r.vals[n:], r.i+1
	return n, nil
}

// laneCase is a sort whose budget runs in lanes lanes.
type laneCase struct {
	lanes  int
	policy policy.Kind
	kind   gen.Kind
}

// laneCases cover one, two and four lanes: the paper's generator at two,
// auto deciding once for every lane, and the quick and heap generators.
var laneCases = []laneCase{
	{1, policy.Quick, gen.Random},
	{2, policy.TwoWayRS, gen.Random},
	{2, policy.Auto, gen.Alternating},
	{4, policy.RS, gen.Random},
}

// config is the case's configuration: the smallest budget that runs in its
// lanes, over input enough for several runs of every lane.
func (c laneCase) config() (Config, int) {
	memory := (c.lanes-1)*laneMax + 1
	if c.lanes == 1 {
		memory = laneMax
	}
	n := 3 * memory
	if testing.Short() {
		n = 2 * memory
	}
	return Config{Policy: c.policy, Memory: memory}, n
}

// TestLanesIdenticalAtEveryParallelism generates and merges the runs of one,
// two and four lanes at Parallelism 1, 2 and 8, from a slice and from a
// source serving ragged batches: the run files, their order and the output
// are the same every time, since Parallelism decides only how many lanes
// compute at once and the blocks dealt to them are sized from the
// configuration alone.
func TestLanesIdenticalAtEveryParallelism(t *testing.T) {
	for _, c := range laneCases {
		cfg, n := c.config()
		recs := gen.Generate(gen.Config{Kind: c.kind, N: n, Seed: 5, Noise: 100})
		if got := cfg.Lanes(); got != c.lanes {
			t.Fatalf("memory %d runs %d lanes, want %d", cfg.Memory, got, c.lanes)
		}
		var wantFiles []string
		var want []record.Record
		for _, ragged := range []bool{false, true} {
			for _, par := range []int{1, 2, 8} {
				name := fmt.Sprintf("%v/lanes=%d/ragged=%v/parallelism=%d", c.policy, c.lanes, ragged, par)
				cfg.Parallelism = par
				var src stream.BatchReader[record.Record] = stream.NewSliceReader(recs)
				if ragged {
					src = &raggedReader[record.Record]{vals: recs, sizes: []int{1, 1000, 7, 4096, 333}}
				}
				rset, err := GenerateRunsBatch(src, vfs.NewMemFS(), cfg, RecordOps())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				st := rset.Stats()
				if st.Lanes != c.lanes || st.LaneMemory != cfg.Memory/c.lanes {
					t.Fatalf("%s: Stats report %d lanes of %d, want %d of %d", name, st.Lanes, st.LaneMemory, c.lanes, cfg.Memory/c.lanes)
				}
				if st.Runs < 2*c.lanes {
					t.Fatalf("%s: %d runs, too few for every lane to cut one", name, st.Runs)
				}
				files := runFileSums(t, rset.spill, rset.Runs())
				got, _ := mergeToSlice(t, rset)
				if want == nil {
					wantFiles, want = files, got
					if !record.IsSorted(got) || !record.NewMultiset(got).Equal(record.NewMultiset(recs)) {
						t.Fatalf("%s: the output is not the sorted input", name)
					}
					continue
				}
				if !slices.Equal(files, wantFiles) {
					t.Fatalf("%s: run files differ from Parallelism 1's:\n got %v\nwant %v", name, files, wantFiles)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: output differs from Parallelism 1's", name)
				}
			}
		}
	}
}

// TestLaneStatsReportLaneMemory holds Stats to the lane rule: a budget of
// 2^15 runs one generator, one past it two, and the run length is reported
// against each lane's memory beside the whole budget's.
func TestLaneStatsReportLaneMemory(t *testing.T) {
	for _, memory := range []int{laneMax, laneMax + 2} {
		cfg := Config{Policy: policy.RS, Memory: memory, Parallelism: 2}
		recs := gen.Generate(gen.Config{Kind: gen.Random, N: 16 * memory, Seed: 9})
		rset, err := GenerateRuns(stream.NewSliceReader(recs), vfs.NewMemFS(), cfg, RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		st := rset.Stats()
		rset.Discard()
		lanes := 1 + memory/(laneMax+1)
		if st.Lanes != lanes || st.LaneMemory != memory/lanes {
			t.Fatalf("memory %d: %d lanes of %d, want %d of %d", memory, st.Lanes, st.LaneMemory, lanes, memory/lanes)
		}
		// Replacement selection on uniform input: runs about twice the
		// memory of the generator that wrote them, the last one shorter.
		if r := st.RunLenOverLaneMemory(); r < 1.5 || r > 2.2 {
			t.Errorf("memory %d: runs are %.2f lane memories long, want about 2", memory, r)
		}
		if got, want := st.AvgRunLength/float64(memory), st.RunLenOverLaneMemory()/float64(lanes); got < 0.99*want || got > 1.01*want {
			t.Errorf("memory %d: %.3f memories per run, want %.3f", memory, got, want)
		}
	}
	if (Config{Memory: 1 << 20, Disk: iosim.NewDisk(iosim.Defaults2010())}).Lanes() != 1 {
		t.Error("a simulated sort runs in lanes")
	}
}

// TestLaneFailureStopsEveryLane fails one lane's spill write, or the source
// the lanes are dealt from, in a sort of four lanes at Parallelism 1, 2 and
// 8, plain and durable: the sort returns that error, no goroutine of it
// outlives it, every spill file is closed, and a plain sort leaves no file
// while a durable one leaves its manifest and arena for a resume.
func TestLaneFailureStopsEveryLane(t *testing.T) {
	cfg, n := laneCase{4, policy.RS, gen.Random}.config()
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: n, Seed: 6})
	var lane1 *faultfs.FS
	v := spillView
	t.Cleanup(func() { spillView = v })
	for _, durable := range []bool{false, true} {
		for _, par := range []int{1, 2, 8} {
			for _, fault := range []string{"write", "source"} {
				name := fmt.Sprintf("durable=%v/parallelism=%d/%s", durable, par, fault)
				cfg.Manifest, cfg.Parallelism = durable, par
				mem := vfs.NewMemFS()
				var src stream.Reader[record.Record] = stream.NewSliceReader(recs)
				want := errSrcKilled
				if fault == "source" {
					src = &killedReader[record.Record]{vals: recs, failAt: int64(n / 2)}
				} else {
					want = faultfs.ErrInjected
				}
				before := runtime.NumGoroutine()
				armed := false
				spillView = func(fs vfs.FS) vfs.FS {
					lane1 = faultfs.New(fs, faultfs.Options{Match: func(name string, _ int64) bool { return strings.HasPrefix(name, "sort-l1-") }})
					if fault == "write" && !armed {
						lane1.Fail(faultfs.Write, 3)
						armed = true
					}
					return lane1
				}
				var out stream.SliceWriter[record.Record]
				_, err := Sort(src, &out, mem, cfg, RecordOps())
				if !errors.Is(err, want) {
					t.Fatalf("%s: error = %v, want %v", name, err, want)
				}
				if errors.Is(err, errLaneStopped) {
					t.Fatalf("%s: the error names a stopped lane, not the failure: %v", name, err)
				}
				if got := settledGoroutines(before); got > before {
					t.Fatalf("%s: %d goroutines after the failed sort, %d before", name, got, before)
				}
				if h := lane1.Handles(); h != 0 {
					t.Fatalf("%s: %d spill files still open", name, h)
				}
				names, _ := mem.Names()
				wantNames := []string(nil)
				if durable {
					wantNames = []string{"sort.arena", manifest.Name("sort")}
				}
				if !slices.Equal(names, wantNames) {
					t.Fatalf("%s: files left %v, want %v", name, names, wantNames)
				}
			}
		}
	}
}

// resumeLanesAtEveryBoundary is TestResumeAtEveryRunBoundary's case for a
// sort of two lanes: the source is killed just past every boundary of both
// lanes — the record after the boundary's lane-local input position, where
// the dealer meets it — and the resumed sort's run files and output are the
// uninterrupted one's. A kill stops every lane once it has read the blocks
// dealt before the failing one, so the boundaries recovered are the longest
// prefix, in commit order, of those whose lane reached them on that input.
func resumeLanesAtEveryBoundary(t *testing.T) {
	cfg := durableCfg(laneMax + 2)
	cfg.Policy = policy.RS
	recs := gen.Generate(gen.Config{Kind: gen.Random, N: 3 * cfg.Memory, Seed: 12})
	want, st, wantFiles := durableBaseline(t, recs, cfg, RecordOps())
	lanes, block := cfg.Lanes(), int64(cfg.dealLen())
	seen := map[int]bool{}
	for _, mr := range st.Runs {
		seen[mr.Lane] = true
	}
	if lanes != 2 || len(seen) != lanes || len(st.Runs) < 4 {
		t.Fatalf("baseline: %d runs over lanes %v, want several of each of 2", len(st.Runs), seen)
	}
	// global maps the (1-based) record a lane reads at lane-local position
	// pos+1 to where it lies in the input.
	global := func(lane int, pos int64) int64 {
		return (pos/block*int64(lanes)+int64(lane))*block + pos%block + 1
	}
	for k, at := range st.Runs {
		failAt := global(at.Lane, at.InputPos)
		t.Run(fmt.Sprintf("boundary_%d_lane_%d", k+1, at.Lane), func(t *testing.T) {
			// The records each lane is dealt before the failing block.
			dealt := (failAt - 1) / block
			wantRecovered := 0
			for _, mr := range st.Runs {
				avail := dealt / int64(lanes) * block
				if int64(mr.Lane) < dealt%int64(lanes) {
					avail += block
				}
				if failAt > int64(len(recs)) || mr.InputPos <= avail {
					wantRecovered++
					continue
				}
				break
			}
			fs := vfs.NewMemFS()
			_, err := GenerateRuns[record.Record](&killedReader[record.Record]{vals: recs, failAt: failAt}, fs, cfg, RecordOps())
			if failAt <= int64(len(recs)) && !errors.Is(err, errSrcKilled) {
				t.Fatalf("kill at %d: err = %v, want errSrcKilled", failAt, err)
			}
			rcfg := cfg
			rcfg.Resume = true
			rset, err := GenerateRuns[record.Record](stream.NewSliceReader(recs), fs, rcfg, RecordOps())
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := rset.Stats().RunsRecovered; got != wantRecovered {
				t.Errorf("RunsRecovered = %d, want %d", got, wantRecovered)
			}
			if files := runFileSums(t, rset.spill, rset.Runs()); !slices.Equal(files, wantFiles) {
				t.Errorf("resumed run files differ from the uninterrupted sort's:\n got %v\nwant %v", files, wantFiles)
			}
			got, _ := mergeToSlice(t, rset)
			if !slices.Equal(got, want) {
				t.Fatalf("resumed output differs from the uninterrupted sort's")
			}
		})
	}
}

// TestGenerationBlock holds the blocks run generation writes, and the
// spill arena's extents, to their rule: BlockBytes of one lane's share of
// the budget, whatever the fan-in.
func TestGenerationBlock(t *testing.T) {
	for _, c := range []struct {
		memory, fanIn int
		want          int
	}{
		{1 << 14, 4, 32 << 10},     // one lane of 256 KiB
		{1 << 14, 0, 32 << 10},     // F = 15
		{1 << 16, 0, 64 << 10},     // two lanes of 512 KiB
		{laneMax + 2, 0, 32 << 10}, // two lanes of 256 KiB
		{1 << 20, 0, 64 << 10},     // 32 lanes of 512 KiB
		{1 << 20, 2047, 64 << 10},  // F = 2047
		{1 << 10, 1000, 4 << 10},   // 16 KiB: one page
	} {
		cfg := Config{Memory: c.memory, FanIn: c.fanIn}
		rset, err := newRunSet(vfs.NewMemFS(), cfg, RecordOps())
		if err != nil {
			t.Fatal(err)
		}
		if got := rset.em.Block; got != c.want {
			t.Errorf("memory %d, fan-in %d: generation blocks of %d bytes, want %d", c.memory, c.fanIn, got, c.want)
		}
		if got := rset.spill.ExtentSize(); got != c.want {
			t.Errorf("memory %d, fan-in %d: arena extents of %d bytes, want a block", c.memory, c.fanIn, got)
		}
	}
}

// TestLanesSortShortInputs sorts inputs that leave lanes without a block,
// or every lane without one, in a sort of four lanes.
func TestLanesSortShortInputs(t *testing.T) {
	cfg := Config{Policy: policy.TwoWayRS, Memory: 3*laneMax + 1}
	for _, n := range []int{0, 1, cfg.dealLen() + 1, 5 * cfg.dealLen()} {
		recs := testRecords(max(n, 2), 4)[:n]
		got, st, err := sortSlice(recs, cfg, RecordOps())
		if err != nil {
			t.Fatalf("%d records: %v", n, err)
		}
		if st.Lanes != 4 || st.Records != int64(n) || !record.IsSorted(got) || !record.NewMultiset(got).Equal(record.NewMultiset(recs)) {
			t.Fatalf("%d records: %d sorted over %d lanes", n, len(got), st.Lanes)
		}
	}
}
