package merge

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// passRuleVolume is the volume the pass planner this package used to run
// above one worker moved: every pass grouped from the queue as it stood,
// smallest first, its outputs competing only in the next pass. Kept as the
// reference planMerge must never move more than.
func passRuleVolume(sizes []int64, fanIn int) (moved int64) {
	queue := slices.Clone(sizes)
	first := (len(queue)-1)%(fanIn-1) + 1
	for len(queue) > fanIn {
		slices.Sort(queue)
		var outs []int64
		total, i := len(queue), 0
		for total > fanIn && i < len(queue) {
			width := fanIn
			if first > 1 {
				width = first
			}
			first = 0
			if width = min(width, len(queue)-i); width < 2 {
				break
			}
			var out int64
			for _, s := range queue[i : i+width] {
				out += s
			}
			moved += out
			outs = append(outs, out)
			i += width
			total -= width - 1
		}
		queue = append(queue[i:], outs...)
	}
	return moved
}

// optimalVolume is the least volume any schedule of merges of 2..fanIn runs
// moves before at most fanIn runs are left, by trying every one of them.
func optimalVolume(sizes []int64, fanIn int) int64 {
	memo := map[string]int64{}
	var best func(q []int64) int64
	best = func(q []int64) int64 {
		if len(q) <= fanIn {
			return 0
		}
		slices.Sort(q)
		key := fmt.Sprint(q)
		if v, ok := memo[key]; ok {
			return v
		}
		least := int64(-1)
		for set := 1; set < 1<<len(q); set++ {
			var rest []int64
			var out int64
			width := 0
			for i, s := range q {
				if set>>i&1 == 1 {
					out += s
					width++
				} else {
					rest = append(rest, s)
				}
			}
			if width < 2 || width > fanIn {
				continue
			}
			if v := out + best(append(rest, out)); least < 0 || v < least {
				least = v
			}
		}
		memo[key] = least
		return least
	}
	return best(slices.Clone(sizes))
}

// planCase decodes a fan-in (first byte) and a list of run sizes (a byte
// each, spread unevenly so that ties and wide gaps both occur) and holds
// planMerge to what a merge plan is.
func planCase(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	fanIn := 2 + int(data[0])%15
	sizes := make([]int64, len(data)-1)
	for i, b := range data[1:] {
		sizes[i] = int64(b%8) * int64(1+b/8)
	}
	n := len(sizes)
	p := planMerge(sizes, fanIn)

	records := slices.Clone(sizes)
	depth := make([]int, n)
	consumed := make([]int, n+len(p.ops))
	var moved int64
	for i, o := range p.ops {
		want := fanIn
		if first := (n-1)%(fanIn-1) + 1; i == 0 && first > 1 {
			want = first
		}
		if len(o.inputs) != want || p.stats.Width(i) != want {
			t.Fatalf("fan-in %d, %d runs: operation %d is %d wide, Stats.Width says %d, want %d", fanIn, n, i, len(o.inputs), p.stats.Width(i), want)
		}
		var sum int64
		deepest := 0
		for _, in := range o.inputs {
			if in < 0 || in >= n+i {
				t.Fatalf("operation %d reads run %d, which is not complete before it (%d inputs)", i, in, n)
			}
			consumed[in]++
			sum += records[in]
			deepest = max(deepest, depth[in])
		}
		if o.records != sum || o.depth != deepest+1 {
			t.Fatalf("operation %d: records %d depth %d, its inputs make %d and %d", i, o.records, o.depth, sum, deepest+1)
		}
		records, depth = append(records, sum), append(depth, deepest+1)
		moved += sum
	}
	passes := 0
	for _, f := range p.finals {
		consumed[f]++
		passes = max(passes, depth[f])
	}
	for id, c := range consumed {
		if c != 1 {
			t.Fatalf("fan-in %d, sizes %v: run %d is consumed %d times", fanIn, sizes, id, c)
		}
	}
	merges := len(p.ops)
	if len(p.finals) > 1 {
		merges, passes = merges+1, passes+1
		if w := p.stats.Width(len(p.ops)); w != len(p.finals) {
			t.Fatalf("fan-in %d, %d runs: the final merge is %d wide, Stats.Width says %d", fanIn, n, len(p.finals), w)
		}
	}
	if len(p.finals) > fanIn || (n > 0 && len(p.finals) == 0) {
		t.Fatalf("fan-in %d, %d runs: %d final runs", fanIn, n, len(p.finals))
	}
	if want := (Stats{Passes: passes, Merges: merges, RecordsMoved: moved, Inputs: n, FanIn: fanIn}); p.stats != want {
		t.Fatalf("stats %+v, the operations make %+v", p.stats, want)
	}
	if pass := passRuleVolume(sizes, fanIn); moved > pass {
		t.Fatalf("fan-in %d, sizes %v: the plan moves %d records, the pass rule moved %d", fanIn, sizes, moved, pass)
	}
	if n <= 8 {
		if least := optimalVolume(sizes, fanIn); moved != least {
			t.Fatalf("fan-in %d, sizes %v: the plan moves %d records, the optimum is %d", fanIn, sizes, moved, least)
		}
	}
}

func planSeeds() [][]byte {
	seeds := [][]byte{{}, {0}, {0, 5}, {1, 1, 1, 1, 1, 1, 1, 1}, {2, 9, 200, 3, 77, 140, 8, 8, 251}}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		seed := make([]byte, 1+rng.Intn(9))
		if i%3 == 0 {
			seed = make([]byte, 1+rng.Intn(400))
		}
		rng.Read(seed)
		seeds = append(seeds, seed)
	}
	return seeds
}

// TestPlanProperties runs the fuzz target's seeds, -short included.
func TestPlanProperties(t *testing.T) {
	for _, seed := range planSeeds() {
		planCase(t, seed)
	}
}

// FuzzPlan lets the fuzzer pick the fan-in and the run sizes.
func FuzzPlan(f *testing.F) {
	for _, seed := range planSeeds()[:12] {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			t.Skip()
		}
		planCase(t, data)
	})
}

// unevenRuns writes n runs of uneven and heavily repeated lengths.
func unevenRuns(t *testing.T, em *runio.Emitter[record.Record], n int, seed int64) []runio.Run {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	runs := make([]runio.Run, n)
	for i := range runs {
		w, err := em.Stream("run", false)
		if err != nil {
			t.Fatal(err)
		}
		for j, size := 0, 1+rng.Intn(3)*rng.Intn(40); j < size; j++ {
			if err := w.Write(record.Record{Key: int64(j), Aux: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		runs[i] = runio.SingleRun(w.Segment())
	}
	return runs
}

// TestScheduleIndependentOfWorkers holds the executor to the plan at every
// Workers setting: the same operations — output name ← input names, in
// group order — whatever order they ran in, the same statistics and the
// same bytes written as one worker's, which
// TestSequentialScheduleUnchanged holds to the rule.
func TestScheduleIndependentOfWorkers(t *testing.T) {
	const fanIn, n = 4, 500
	type outcome struct {
		steps []string
		stats Stats
		raw   int64
		out   []record.Record
	}
	run := func(workers int) outcome {
		fs := &scheduleFS{FS: vfs.NewMemFS()}
		em := runio.RecordEmitter(fs, "m")
		runs := unevenRuns(t, em, n, 5)
		before := em.Store.Stats().RawBytesWritten
		fs.log = true
		var out stream.SliceWriter[record.Record]
		stats, err := Merge(em, runs, &out, Config{FanIn: fanIn, MemoryBytes: 1 << 16, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		sort.Strings(fs.steps)
		return outcome{fs.steps, stats, em.Store.Stats().RawBytesWritten - before, out.Vals}
	}
	want := run(1)
	if len(want.steps) < 100 || want.stats.Passes < 4 {
		t.Fatalf("one worker: %d operations, %+v; want a deep plan", len(want.steps), want.stats)
	}
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		if !slices.Equal(got.steps, want.steps) {
			t.Errorf("workers %d: %d operations that are not one worker's %d", workers, len(got.steps), len(want.steps))
		}
		if got.stats != want.stats || got.raw != want.raw {
			t.Errorf("workers %d: stats %+v and %d raw bytes written, one worker %+v and %d", workers, got.stats, got.raw, want.stats, want.raw)
		}
		if !slices.Equal(got.out, want.out) {
			t.Errorf("workers %d: output differs from one worker's", workers)
		}
	}
}

// TestFailedOperationStrandsNothing kills the creates, and the input opens,
// from every position of a multi-level plan on, on 1, 2 and 4 workers: Merge
// returns the injected error, every worker meets the dead disk at most once
// — the failure stops it claiming — none of them opens the output that was
// never made, and every worker goroutine is gone when Merge returns.
func TestFailedOperationStrandsNothing(t *testing.T) {
	const fanIn, n = 2, 24 // 22 intermediate operations, 5 levels
	for _, workers := range []int{1, 2, 4} {
		for pos := int64(1); pos <= n-fanIn; pos++ {
			for _, fault := range []struct {
				name string
				op   faultfs.Op
				at   int64 // the call of op the operation at pos makes first
			}{{"create", faultfs.Create, pos}, {"open", faultfs.Open, fanIn*(pos-1) + 1}} {
				name := fmt.Sprintf("workers %d, %s at position %d", workers, fault.name, pos)
				fs := faultfs.New(vfs.NewMemFS(), faultfs.Options{})
				em := runio.RecordEmitter(fs, "m")
				runs, _ := makeRuns(t, fs, em, n, 20, 5)
				fs.Fail(fault.op, fault.at)
				before := runtime.NumGoroutine()
				var out stream.SliceWriter[record.Record]
				_, err := Merge(em, runs, &out, Config{FanIn: fanIn, MemoryBytes: 1 << 16, Workers: workers})
				if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("%s: error = %v", name, err)
				}
				if after := fs.Failed(fault.op) - 1; after >= int64(workers) {
					t.Fatalf("%s: %d operations started after the failure, want fewer than the workers", name, after)
				}
				if fault.op == faultfs.Create && fs.Failed(faultfs.Open) != 0 {
					t.Fatalf("%s: an operation opened an output that was never created", name)
				}
				deadline := time.Now().Add(time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if now := runtime.NumGoroutine(); now > before {
					t.Fatalf("%s: %d goroutines after the failed merge, %d before", name, now, before)
				}
			}
		}
	}
}
