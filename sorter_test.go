package repro

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/stream"
)

// small memory budgets so every property test spills multiple runs to the
// (in-memory) file system and exercises both phases.
const testMemory = 256

var testAlgorithms = []string{"2wrs", "rs", "lss"}

// checkSortedPermutation verifies out is sorted by less and is a
// permutation of in.
func checkSortedPermutation[T comparable](t *testing.T, in, out []T, less func(a, b T) bool) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("output has %d elements, input %d", len(out), len(in))
	}
	for i := 1; i < len(out); i++ {
		if less(out[i], out[i-1]) {
			t.Fatalf("output not sorted at %d: %v after %v", i, out[i], out[i-1])
		}
	}
	counts := make(map[T]int, len(in))
	for _, v := range in {
		counts[v]++
	}
	for _, v := range out {
		counts[v]--
	}
	for v, n := range counts {
		if n != 0 {
			t.Fatalf("element %v count off by %d", v, n)
		}
	}
}

func TestSorterInt64AllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := make([]int64, 20000)
	for i := range in {
		in[i] = rng.Int63n(1 << 40)
	}
	less := func(a, b int64) bool { return a < b }
	for _, alg := range testAlgorithms {
		s, err := New(less, WithPolicy(alg), WithMemoryRecords(testMemory), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := s.SortSlice(context.Background(), in)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkSortedPermutation(t, in, out, less)
		if stats.Records != int64(len(in)) || stats.Runs < 2 {
			t.Fatalf("%v: stats = %+v, want a genuine external sort", alg, stats)
		}
	}
}

func TestSorterStringAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := make([]string, 20000)
	for i := range in {
		l := 1 + rng.Intn(40)
		var sb strings.Builder
		for j := 0; j < l; j++ {
			sb.WriteByte(byte('a' + rng.Intn(26)))
		}
		in[i] = sb.String()
	}
	less := func(a, b string) bool { return a < b }
	for _, alg := range testAlgorithms {
		s, err := New(less, WithPolicy(alg), WithMemoryRecords(testMemory), WithSeed(2))
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := s.SortSlice(context.Background(), in)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkSortedPermutation(t, in, out, less)
		if stats.Runs < 2 {
			t.Fatalf("%v: only %d runs; memory budget did not force spilling", alg, stats.Runs)
		}
	}
}

// pair is a struct element with a composite (string, int64) key, exercising
// a custom codec and comparator end to end.
type pair struct {
	Name string
	N    int64
}

func pairLess(a, b pair) bool {
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.N < b.N
}

// pairCodec stores a pair as a length-prefixed name followed by a fixed
// 8-byte count.
type pairCodec struct{}

func (pairCodec) Append(buf []byte, v pair) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v.Name)))
	buf = append(buf, v.Name...)
	return binary.LittleEndian.AppendUint64(buf, uint64(v.N))
}

func (pairCodec) Decode(buf []byte) (pair, int, error) {
	l, p := binary.Uvarint(buf)
	if p <= 0 || len(buf) < p+int(l)+8 {
		return pair{}, 0, ErrShortCodec
	}
	name := string(buf[p : p+int(l)])
	n := int64(binary.LittleEndian.Uint64(buf[p+int(l):]))
	return pair{Name: name, N: n}, p + int(l) + 8, nil
}

func (pairCodec) FixedSize() int { return 0 }

func TestSorterStructAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := make([]pair, 15000)
	for i := range in {
		in[i] = pair{
			Name: fmt.Sprintf("user-%03d", rng.Intn(500)),
			N:    rng.Int63n(1000),
		}
	}
	for _, alg := range testAlgorithms {
		s, err := New(pairLess,
			WithPolicy(alg),
			WithMemoryRecords(testMemory),
			WithCodec[pair](pairCodec{}),
			WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		out, stats, err := s.SortSlice(context.Background(), in)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		checkSortedPermutation(t, in, out, pairLess)
		if stats.Runs < 2 {
			t.Fatalf("%v: only %d runs", alg, stats.Runs)
		}
	}
}

func TestSorterHeuristicsAndSetupsOnStrings(t *testing.T) {
	// The full 2WRS heuristic surface over a comparator-only type: the
	// numeric heuristics must fall back cleanly and stay correct.
	rng := rand.New(rand.NewSource(14))
	in := make([]string, 4000)
	for i := range in {
		in[i] = fmt.Sprintf("%06x", rng.Intn(1<<22))
	}
	less := func(a, b string) bool { return a < b }
	for _, setup := range []BufferSetup{InputBufferOnly, BothBuffers, VictimBufferOnly} {
		for _, in2 := range []InputHeuristic{InputRandom, InputAlternate, InputMean, InputMedian, InputUseful, InputBalancing} {
			for _, out2 := range []OutputHeuristic{OutputRandom, OutputAlternate, OutputUseful, OutputBalancing, OutputMinDistance} {
				s, err := New(less,
					WithMemoryRecords(128),
					WithBufferSetup(setup),
					WithBufferFraction(0.1),
					WithHeuristics(in2, out2),
					WithSeed(4))
				if err != nil {
					t.Fatal(err)
				}
				out, _, err := s.SortSlice(context.Background(), in)
				if err != nil {
					t.Fatalf("setup=%v in=%v out=%v: %v", setup, in2, out2, err)
				}
				checkSortedPermutation(t, in, out, less)
			}
		}
	}
}

func TestSorterContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	less := func(a, b int64) bool { return a < b }
	s, err := New(less, WithMemoryRecords(128))
	if err != nil {
		t.Fatal(err)
	}
	// An endless source; the sort can only terminate through cancellation.
	n := 0
	src := sourceFunc[int64](func() (int64, error) {
		n++
		if n == 10000 {
			cancel()
		}
		return int64(n % 977), nil
	})
	var out discardSink[int64]
	_, err = s.Sort(ctx, src, &out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sort returned %v, want context.Canceled", err)
	}
	if n > 10000+2048 {
		t.Fatalf("source read %d times after cancellation; batch checks not honoured", n)
	}
}

func TestSorterAlreadyCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := New(func(a, b int64) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SortSlice(ctx, []int64{3, 1, 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

type sourceFunc[T any] func() (T, error)

func (f sourceFunc[T]) Read() (T, error) { return f() }

type discardSink[T any] struct{ n int64 }

func (d *discardSink[T]) Write(T) error { d.n++; return nil }

func TestSorterTempDirStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	in := make([]string, 5000)
	for i := range in {
		in[i] = fmt.Sprintf("%08d-%d", rng.Intn(1<<20), i)
	}
	less := func(a, b string) bool { return a < b }
	s, err := New(less, WithMemoryRecords(200), WithTempDir(t.TempDir()+"/runs"))
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := s.SortSlice(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	checkSortedPermutation(t, in, out, less)
}

func TestNewRejectsBadInputs(t *testing.T) {
	lessInt := func(a, b int64) bool { return a < b }
	if _, err := New[int64](nil); err == nil {
		t.Fatal("nil comparator should be rejected")
	}
	if _, err := New(func(a, b struct{ X int }) bool { return a.X < b.X }); err == nil {
		t.Fatal("unknown element type without WithCodec should be rejected")
	}
	if _, err := New(lessInt, WithCodec(StringCodec())); err == nil {
		t.Fatal("codec/element type mismatch should be rejected")
	}
	if _, err := New(lessInt, WithKey(func(s string) float64 { return 0 })); err == nil {
		t.Fatal("key/element type mismatch should be rejected")
	}
}

func TestConfigValidateTable(t *testing.T) {
	valid := DefaultConfig(1000)
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"default ok", func(c *Config) {}, ""},
		{"zero value invalid", func(c *Config) { *c = Config{} }, "memory"},
		{"negative memory", func(c *Config) { c.MemoryRecords = -5 }, "memory"},
		{"tiny memory", func(c *Config) { c.MemoryRecords = 2 }, "too small"},
		{"fan-in one", func(c *Config) { c.FanIn = 1 }, "fan-in"},
		{"fan-in zero", func(c *Config) { c.FanIn = 0 }, ""},
		{"fan-in negative", func(c *Config) { c.FanIn = -1 }, "fan-in"},
		{"fraction zero", func(c *Config) { c.BufferFraction = 0 }, "fraction"},
		{"fraction negative", func(c *Config) { c.BufferFraction = -0.1 }, "fraction"},
		{"fraction too large", func(c *Config) { c.BufferFraction = 0.6 }, "fraction"},
		{"fraction at bound ok", func(c *Config) { c.BufferFraction = 0.5 }, ""},
		{"unknown policy", func(c *Config) { c.Policy = "quicksort" }, strings.Join(Policies(), ", ")},
		{"policy alias ok", func(c *Config) { c.Policy = "lss" }, ""},
		{"empty policy ok", func(c *Config) { c.Policy = "" }, ""},
		{"unknown setup", func(c *Config) { c.Setup = BufferSetup(9) }, "setup"},
		{"unknown input heuristic", func(c *Config) { c.Input = InputHeuristic(99) }, "input heuristic"},
		{"unknown output heuristic", func(c *Config) { c.Output = OutputHeuristic(99) }, "output heuristic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error mentioning %q", err, tc.wantErr)
			}
		})
	}
}

func TestNewValidatesConfig(t *testing.T) {
	less := func(a, b int64) bool { return a < b }
	if _, err := New(less, WithFanIn(1)); err == nil {
		t.Fatal("New should validate fan-in")
	}
	if _, err := New(less, WithMemoryRecords(0)); err == nil {
		t.Fatal("New should validate memory")
	}
	if _, err := New(less, WithBufferFraction(0.9)); err == nil {
		t.Fatal("New should validate buffer fraction")
	}
}

func TestLegacySortRejectsBadConfig(t *testing.T) {
	if _, err := New(Record.Less, WithConfig(Config{})); err == nil {
		t.Fatal("zero config should be rejected")
	}
}

func TestLegacyHandBuiltConfigStillSorts(t *testing.T) {
	// Seed-era behavior: a hand-built config with zero FanIn/BufferFraction
	// relied on downstream defaulting. New is the one place that resolves
	// it, so SortSlice and Sort over a streamed dataset sort it alike.
	recs := Dataset(DatasetRandom, 3000, 1)
	s, err := New(Record.Less, WithConfig(Config{Policy: "rs", MemoryRecords: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	// 1000 16-byte records feed fewer than ten merge blocks: the width
	// derived from the budget is the paper's 10, its lower bound.
	if got, want := s.Config().FanIn, 10; got != want {
		t.Errorf("zero FanIn resolved to %d, want the derived %d", got, want)
	}
	if got, want := s.Config().BufferFraction, DefaultConfig(1000).BufferFraction; got != want {
		t.Errorf("zero BufferFraction resolved to %v, want the default %v", got, want)
	}
	paths := []struct {
		name string
		sort func() ([]Record, Stats, error)
	}{
		{"SortSlice", func() ([]Record, Stats, error) { return s.SortSlice(context.Background(), recs) }},
		{"Sort", func() ([]Record, Stats, error) {
			var out sliceSink[Record]
			st, err := s.Sort(context.Background(), DatasetReader(DatasetRandom, 3000, 1), &out)
			return out.vals, st, err
		}},
	}
	var first []Record
	var firstStats Stats
	for i, p := range paths {
		out, st, err := p.sort()
		if err != nil || len(out) != len(recs) {
			t.Fatalf("%s: seed-era hand-built config: err=%v len=%d", p.name, err, len(out))
		}
		checkSortedPermutation(t, recs, out, Record.Less)
		if i == 0 {
			first, firstStats = out, st
			continue
		}
		for j := range out {
			if out[j] != first[j] {
				t.Fatalf("%s: record %d = %v, %s gave %v", p.name, j, out[j], paths[0].name, first[j])
			}
		}
		if st.Runs != firstStats.Runs || st.MergePasses != firstStats.MergePasses || st.Policy != firstStats.Policy {
			t.Errorf("%s: runs/passes/policy = %d/%d/%s, %s gave %d/%d/%s", p.name,
				st.Runs, st.MergePasses, st.Policy, paths[0].name, firstStats.Runs, firstStats.MergePasses, firstStats.Policy)
		}
	}
}

// TestSorterLargeVariableStrings is a scaled-down version of
// examples/strings: many variable-length strings under a memory budget far
// smaller than the input, through the variable-width codec.
func TestSorterLargeVariableStrings(t *testing.T) {
	n := 30000
	if testing.Short() {
		n = 5000
	}
	rng := rand.New(rand.NewSource(16))
	in := make([]string, n)
	for i := range in {
		l := 4 + rng.Intn(60)
		b := make([]byte, l)
		for j := range b {
			b[j] = byte('!' + rng.Intn(90))
		}
		in[i] = string(b)
	}
	less := func(a, b string) bool { return a < b }
	s, err := New(less, WithMemoryRecords(512), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := s.SortSlice(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	checkSortedPermutation(t, in, out, less)
	if want := n / (4 * 512); stats.Runs < max(2, want) {
		t.Fatalf("expected ≥%d runs under the small budget, got %d", max(2, want), stats.Runs)
	}
}

// TestSorterStreamsMatchIO verifies the generic Sort streams from a Source
// to a Sink rather than materialising, by feeding it from a reader and
// checking EOF semantics.
func TestSorterSourceSinkStreaming(t *testing.T) {
	less := func(a, b int64) bool { return a < b }
	s, err := New(less, WithMemoryRecords(64), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	i := 0
	src := sourceFunc[int64](func() (int64, error) {
		if i == n {
			return 0, io.EOF
		}
		i++
		return int64((i * 7919) % 104729), nil
	})
	var got []int64
	dst := sinkFunc[int64](func(v int64) error { got = append(got, v); return nil })
	stats, err := s.Sort(context.Background(), src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != n || len(got) != n {
		t.Fatalf("streamed %d records, stats %+v", len(got), stats)
	}
	if !sort.SliceIsSorted(got, func(a, b int) bool { return got[a] < got[b] }) {
		t.Fatal("streamed output not sorted")
	}
}

type sinkFunc[T any] func(T) error

func (f sinkFunc[T]) Write(v T) error { return f(v) }

// TestSorterCancellationMidMerge interrupts a large multi-pass sort during
// the merge phase and requires the prompt context error plus a bounded
// amount of output after the cancellation — the batched cancellation
// checks must fire at the next batch boundary, not at the end of the sort.
func TestSorterCancellationMidMerge(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	less := func(a, b int64) bool { return a < b }
	// A small memory budget and fan-in force several intermediate merge
	// passes over ~100 runs.
	s, err := New(less, WithMemoryRecords(512), WithFanIn(4), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	i := 0
	src := sourceFunc[int64](func() (int64, error) {
		if i == n {
			return 0, io.EOF
		}
		i++
		return int64((i * 7919) % 104729), nil
	})
	// Cancel as soon as the first sorted element arrives: the sort is then
	// mid-merge, streaming the final pass.
	writes := 0
	dst := sinkFunc[int64](func(int64) error {
		if writes == 0 {
			cancel()
		}
		writes++
		return nil
	})
	_, err = s.Sort(ctx, src, dst)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sort returned %v, want context.Canceled", err)
	}
	// The batch in flight when the context died may drain, nothing more.
	if writes > 2048 {
		t.Fatalf("%d elements written after cancellation; merge ignored the context", writes)
	}
}

// TestSorterCancelledBeforeMerge cancels exactly when run generation
// exhausts the source: the merge phase must abort without producing any
// output, proving the intermediate merge passes poll the context too.
func TestSorterCancelledBeforeMerge(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	less := func(a, b int64) bool { return a < b }
	s, err := New(less, WithMemoryRecords(512), WithFanIn(4), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	const n = 50_000
	i := 0
	src := sourceFunc[int64](func() (int64, error) {
		if i == n {
			cancel() // run generation is done; the merge is about to start
			return 0, io.EOF
		}
		i++
		return int64((i * 104729) % 7919), nil
	})
	writes := 0
	dst := sinkFunc[int64](func(int64) error { writes++; return nil })
	_, err = s.Sort(ctx, src, dst)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sort returned %v, want context.Canceled", err)
	}
	if writes != 0 {
		t.Fatalf("%d elements written although the context died before the merge", writes)
	}
}

// TestSorterStorageOptions drives the deprecated options end to end: whatever
// WithCompression names — the one layout, a retired framing or a name that
// never was one — and whatever shard count WithShards asks for, a
// variable-width sort over a real temp dir runs the one checked raw layout
// as the sort with no option does: the same output, runs, merge passes and
// reported fan-in, its I/O accounted, no shard counts, and the directory
// left empty.
func TestSorterStorageOptions(t *testing.T) {
	in := make([]string, 6000)
	for i := range in {
		in[i] = fmt.Sprintf("key-%05d", (i*7919)%6000)
	}
	less := func(a, b string) bool { return a < b }
	plain, err := New(less, WithMemoryRecords(256))
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats, err := plain.SortSlice(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name string
		opt  Option
	}{
		{"raw", WithCompression("raw")},
		{"none", WithCompression("none")},
		{"flate", WithCompression("flate")},
		{"gzip", WithCompression("gzip")},
		{"shards=2", WithShards(2)},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := New(less, WithMemoryRecords(256), WithTempDir(dir), row.opt)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := s.SortSlice(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatal("output differs from the sort with no option")
			}
			if stats.Runs != wantStats.Runs || stats.MergePasses != wantStats.MergePasses || s.Config().FanIn != plain.Config().FanIn {
				t.Fatalf("%d runs, %d merge passes, fan-in %d; with no option %d, %d, %d",
					stats.Runs, stats.MergePasses, s.Config().FanIn, wantStats.Runs, wantStats.MergePasses, plain.Config().FanIn)
			}
			if stats.ShardRecords != nil {
				t.Fatalf("ShardRecords = %v, want nil", stats.ShardRecords)
			}
			if stats.Storage != "raw" || stats.IO.RawBytesWritten == 0 || stats.IO.VerifyFailures != 0 {
				t.Fatalf("backend %q, IO accounting %+v", stats.Storage, stats.IO)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 0 {
				t.Fatalf("temp files left behind: %d entries", len(ents))
			}
		})
	}
}

// TestSorterReusesGenerationMemory: the memory the cheap generator needs —
// auto's probe, which quick keeps as its first load, quick's load buffer
// and batch sorter, the spill blocks — and the merge's leaf batches, key
// words and chunks are the Sorter's, paid by its first sort: a later sort
// of ten memory-loads allocates at most 120,000 bytes, under half a load
// (the spill files in a temp dir, whose page cache is not the heap).
func TestSorterReusesGenerationMemory(t *testing.T) {
	const m = 1 << 14
	recs := Dataset(DatasetRandom, 10*m, 5)
	s, err := New(Record.Less, WithMemoryRecords(m), WithTempDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	sort := func() Stats {
		st, err := s.Sort(context.Background(), stream.NewSliceReader(recs), &discardSink[Record]{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if st := sort(); st.Generator != "quick" {
		t.Fatalf("auto ran %s, want quick", st.Generator)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sort()
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 120_000 {
		t.Fatalf("the second sort allocated %d bytes, want at most 120,000", got)
	}
}

// TestSorterRecyclesProbePrefix: auto's probe borrows a memory-load from the
// Sorter's scratch, and with lanes — a default budget runs 32 — no generator
// adopts it; its records are dealt to the lanes' blocks, and the buffer goes
// back to the scratch then. So a warm Sorter's second default sort of 2M
// random records allocates no new probe: at most 4 MB, against the 16 MB of
// the probe alone.
func TestSorterRecyclesProbePrefix(t *testing.T) {
	recs := Dataset(DatasetRandom, 2_000_000, 7)
	s, err := New(Record.Less, WithTempDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	sort := func() {
		if _, err := s.Sort(context.Background(), stream.NewSliceReader(recs), &discardSink[Record]{}); err != nil {
			t.Fatal(err)
		}
	}
	sort()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sort()
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 4<<20 {
		t.Fatalf("the second sort allocated %d bytes, want at most 4 MiB", got)
	}
}

// TestSorterConcurrentSorts runs sorts of one Sorter side by side: they
// share its spill block pool and its generation scratch, and each must still
// write its own input sorted (run it under -race).
func TestSorterConcurrentSorts(t *testing.T) {
	const m = 1 << 10
	s, err := New(Record.Less, WithMemoryRecords(m))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i, kind := range []DatasetKind{DatasetRandom, DatasetMixedBalanced, DatasetReverseSorted, DatasetRandom} {
		recs := Dataset(kind, 20*m, int64(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := stream.SliceWriter[Record]{}
			if _, err := s.Sort(context.Background(), stream.NewSliceReader(recs), &out); err != nil {
				t.Error(err)
				return
			}
			want := slices.Clone(recs)
			slices.SortStableFunc(want, func(a, b Record) int { return cmp.Compare(a.Key, b.Key) })
			if !slices.EqualFunc(out.Vals, want, func(a, b Record) bool { return a.Key == b.Key }) {
				t.Errorf("sort %d (%v) did not write its input sorted", i, kind)
			}
		}()
	}
	wg.Wait()
}
