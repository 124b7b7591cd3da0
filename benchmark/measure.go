package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/stream"
)

// params is what one run of one workload is given.
type params struct {
	seed    int64
	seconds float64
	// scale divides N and M, and n, when set, replaces the per-dataset
	// element count; either marks the result non-evidential.
	scale, n int
	// root is the directory spill directories are created under. Spill goes
	// to a real directory: an in-memory file system would hold the whole
	// dataset in RAM, which is not external sorting.
	root string
	// cpuProfile and memProfile, when set, receive pprof profiles covering
	// exactly the timed sorts.
	cpuProfile, memProfile string
}

// childArgs are the flags that hand a re-executed child this run's
// workload and parameters.
func (p params) childArgs(workload string) []string {
	return []string{"-workload", workload,
		"-seed", strconv.FormatInt(p.seed, 10),
		"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64),
		"-scale", strconv.Itoa(p.scale), "-n", strconv.Itoa(p.n), "-root", p.root}
}

const (
	// setupEvery is how many timed pairs pass between two repetitions of
	// set-up.
	setupEvery = 2
	// minSamples is the fewest timed operations a run reports on, however
	// short --seconds is.
	minSamples = 3
)

// input is one materialised dataset with what verification needs.
type input[T any] struct {
	name    string
	vals    []T
	want    fingerprint
	encoded int64 // exact encoded size, the base of spill_write_amp
}

// materialize generates every dataset of the workload from the seed.
func (w *workload[T]) materialize(p params) ([]input[T], error) {
	n, _ := w.scaled(p)
	ins := make([]input[T], len(w.datasets))
	var buf []byte
	for i, ds := range w.datasets {
		vals, err := stream.ReadAll[T](ds.open(n, p.seed+int64(i)))
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", ds.name, err)
		}
		in := input[T]{name: ds.name, vals: vals, want: fingerprintOf(vals, w.hash)}
		if fixed := w.ops.Codec.FixedSize(); fixed > 0 {
			in.encoded = int64(fixed) * int64(len(vals))
		} else {
			for _, v := range vals {
				buf = w.ops.Codec.Append(buf[:0], v)
				in.encoded += int64(len(buf))
			}
		}
		ins[i] = in
	}
	return ins, nil
}

// warmups returns the first quarter of every input. The warm-up sort runs
// over these: it pages in the code, grows the Go heap, creates the spill
// files' directory entries and fills the page cache, at a quarter of the
// price of a timed operation — set-up runs several times per run.
func (w *workload[T]) warmups(ins []input[T]) []input[T] {
	out := make([]input[T], len(ins))
	for i, in := range ins {
		vals := in.vals[:len(in.vals)/4]
		out[i] = input[T]{name: in.name, vals: vals, want: fingerprintOf(vals, w.hash)}
	}
	return out
}

// tally counts sorts attempted and failed across everything a run does:
// warm-ups, timed sorts, the footprint child and the traced pass.
type tally struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// verified runs one sort through sortFn into a verifying sink and checks
// the result against want. Any error — from the sorter, an out-of-order
// element, a count or fingerprint mismatch — counts as one failed sort.
func verified[T any](t *tally, w *workload[T], want func() fingerprint, sortFn func(dst *verifySink[T]) (repro.Stats, error)) (repro.Stats, error) {
	t.Attempted++
	sink := &verifySink[T]{less: w.less, hash: w.hash}
	st, err := sortFn(sink)
	if err == nil {
		err = sink.check(want())
	}
	if err != nil {
		t.Failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s: sort failed: %v\n", w.name, err)
	}
	return st, err
}

// operation sorts every dataset once through the public API and returns
// the stored spill bytes and the runs generated, or an error if any sort
// failed.
func (w *workload[T]) operation(t *tally, sorter *repro.Sorter[T], ins []input[T]) (stored int64, runs int, err error) {
	for _, in := range ins {
		st, serr := verified(t, w, func() fingerprint { return in.want }, func(dst *verifySink[T]) (repro.Stats, error) {
			return sorter.Sort(context.Background(), stream.NewSliceReader(in.vals), dst)
		})
		if serr != nil {
			err = serr
		}
		stored += st.IO.StoredBytesWritten
		runs += st.Runs
	}
	return stored, runs, err
}

// reference is the fixed work every timed sort is measured against: the
// standard library's in-memory sort of a copy of each input, under the
// workload's own comparator. It comes with the toolchain, so no change to
// the repository moves it, and it runs on the same cores, caches and memory
// as the sort it follows, within the same second or two.
func (w *workload[T]) reference(ins []input[T], scratch []T) {
	for _, in := range ins {
		vals := scratch[:copy(scratch, in.vals)]
		slices.SortFunc(vals, func(a, b T) int {
			switch {
			case w.less(a, b):
				return -1
			case w.less(b, a):
				return 1
			}
			return 0
		})
	}
}

// spillDir creates a fresh spill directory under root.
func spillDir(root, name string) (dir string, cleanup func(), err error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	dir, err = os.MkdirTemp(root, name+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd measures the workload as a user meets it: Sorter.Sort from a
// Source to a verifying Sink, one sort at a time, tracing off.
func (w *workload[T]) endToEnd(p params) (*result, error) {
	res := w.newResult(p, false)
	dir, cleanup, err := spillDir(p.root, w.name)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Set-up in full: input generation, fingerprinting, sorter construction
	// and the untimed warm-up sort. It runs once before the timed pairs, cold
	// and unsampled, and again after every setupEvery-th pair, where it is
	// timed against that pair's reference pass.
	var (
		ins    []input[T]
		sorter *repro.Sorter[T]
	)
	setup := func() (time.Duration, error) {
		t0 := time.Now()
		var err error
		if ins, err = w.materialize(p); err != nil {
			return 0, err
		}
		if sorter, err = w.newSorter(dir, p); err != nil {
			return 0, err
		}
		w.operation(&res.tally, sorter, w.warmups(ins))
		dt := time.Since(t0)
		runtime.GC() // drop the previous repetition's inputs before timing
		return dt, nil
	}
	if _, err := setup(); err != nil {
		return nil, err
	}
	var records, encoded int64
	longest := 0
	for _, in := range ins {
		records += int64(len(in.vals))
		encoded += in.encoded
		longest = max(longest, len(in.vals))
	}
	scratch := make([]T, longest)

	if p.cpuProfile != "" {
		f, err := os.Create(p.cpuProfile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	// Each timed sort is paired with the reference pass that follows it, and
	// the gated timings are the ratios within a pair: what slows the host
	// for seconds or minutes slows both, and mostly cancels.
	var wallRatio, cpuRatio, setupRatio, rate, cpu, ref, bytes, allocs, amp []float64
	var ms0, ms1 runtime.MemStats
	perRec := 1 / float64(records)
	start := time.Now()
	for pairs := 1; ; pairs++ {
		runtime.ReadMemStats(&ms0)
		c0, t0 := cpuNow(), time.Now()
		stored, _, err := w.operation(&res.tally, sorter, ins)
		dt, dc := time.Since(t0), cpuNow()-c0
		runtime.ReadMemStats(&ms1)
		c0, t0 = cpuNow(), time.Now()
		w.reference(ins, scratch)
		rt, rc := time.Since(t0), cpuNow()-c0
		ref = append(ref, float64(rt.Nanoseconds())*perRec)
		if err == nil {
			wallRatio = append(wallRatio, dt.Seconds()/rt.Seconds())
			cpuRatio = append(cpuRatio, dc.Seconds()/rc.Seconds())
			rate = append(rate, float64(records)/dt.Seconds())
			cpu = append(cpu, float64(dc.Nanoseconds())*perRec)
			bytes = append(bytes, float64(ms1.TotalAlloc-ms0.TotalAlloc)*perRec)
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs)*perRec)
			amp = append(amp, float64(stored)/float64(encoded))
		}
		if pairs%setupEvery == 0 {
			st, err := setup()
			if err != nil {
				return nil, err
			}
			setupRatio = append(setupRatio, st.Seconds()/rt.Seconds())
		}
		// Start another pair only while at least half of it is expected to
		// fit, so a run overshoots --seconds by little.
		if pairs >= minSamples && (time.Since(start)+(dt+rt)/2).Seconds() > p.seconds {
			break
		}
	}
	if p.cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if p.memProfile != "" {
		if err := writeHeapProfile(p.memProfile); err != nil {
			return nil, err
		}
	}

	rss, err := w.footprintChild(p, &res.tally)
	if err != nil {
		return nil, err
	}
	res.Records = records
	// Set-up has to be reported in seconds. Its ratio to the adjacent
	// reference pass is steady where its seconds are not (they moved by a
	// third within the hour this was written), so each sample is scaled to
	// the run's quietest moment: the fastest reference pass.
	fastestRef := slices.Min(ref) * float64(records) * 1e-9 // seconds
	setups := make([]float64, len(setupRatio))
	for i, r := range setupRatio {
		setups[i] = r * fastestRef
	}
	res.record("setup_s", setups...)
	res.record("sort_wall_vs_ref", wallRatio...)
	res.record("sort_cpu_vs_ref", cpuRatio...)
	res.record("sort_rec_per_s", rate...)
	res.record("cpu_ns_per_rec", cpu...)
	res.record("ref_ns_per_rec", ref...)
	res.record("alloc_bytes_per_rec", bytes...)
	res.record("allocs_per_rec", allocs...)
	res.record("peak_rss_mb", rss)
	res.record("spill_write_amp", amp...)
	return res, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return pprof.WriteHeapProfile(f)
}

// childEnv marks a re-execution of the running binary as the footprint
// child. The command ignores it; the test binary needs it to know it must
// act as the command (see TestMain).
const childEnv = "BENCHMARK_CHILD"

// footprintReport is what the footprint child prints for its parent.
type footprintReport struct {
	tally
	PeakRSSKB int64 `json:"peak_rss_kb"`
}

// footprintChild re-executes the benchmark to run one operation with the
// input streamed from the generator, and returns the child's peak resident
// set. In this process the materialised input (64 MB at 4M records) would
// swamp the sorter's own memory.
//
// The child reports its own VmHWM. The parent cannot read the peak from the
// child's exit status: Go starts children with vfork, so until exec the
// child runs on the parent's address space, and Linux folds that address
// space's high-water mark into the child's ru_maxrss — which then reads as
// the parent's peak, input and all.
func (w *workload[T]) footprintChild(p params, t *tally) (rssMB float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, append(p.childArgs(w.name), "-footprint")...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var rep footprintReport
	if jerr := json.Unmarshal(out, &rep); jerr != nil {
		return 0, fmt.Errorf("footprint child: %v (exit: %v)", jerr, err)
	}
	t.Attempted += rep.Attempted
	t.Failed += rep.Failed
	return float64(rep.PeakRSSKB) / 1024, nil
}

// footprint is the child's side: one operation, input never materialised,
// fingerprinted as the sorter pulls it. It prints a footprintReport.
func (w *workload[T]) footprint(p params) error {
	dir, cleanup, err := spillDir(p.root, w.name+"-footprint")
	if err != nil {
		return err
	}
	defer cleanup()
	sorter, err := w.newSorter(dir, p)
	if err != nil {
		return err
	}
	n, _ := w.scaled(p)
	var rep footprintReport
	for i, ds := range w.datasets {
		src := &fingerprintSource[T]{src: ds.open(n, p.seed+int64(i)), hash: w.hash}
		verified(&rep.tally, w, func() fingerprint { return src.seen }, func(dst *verifySink[T]) (repro.Stats, error) {
			return sorter.Sort(context.Background(), src, dst)
		})
	}
	if rep.PeakRSSKB, err = peakRSSKB(); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// peakRSSKB reads this process's resident-set high-water mark.
func peakRSSKB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.Fields(rest)[0], 10, 64) // "VmHWM:   12776 kB"
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// defaultRoot is where spill directories go unless -root says otherwise:
// inside the working directory, next to the build outputs.
func defaultRoot() string { return filepath.Join(".bench_build", "spill") }
