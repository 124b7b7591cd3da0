package merge

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/record"
	"repro/internal/stream"
)

// genSource adapts a generic slice to the Source interface.
type genSource[T any] struct {
	*stream.SliceReader[T]
	closed bool
}

func (s *genSource[T]) Close() error {
	s.closed = true
	return nil
}

func genSrcOf[T any](vals []T) *genSource[T] {
	return &genSource[T]{SliceReader: stream.NewSliceReader(vals)}
}

// failingSource serves vals and then fails with err instead of ending.
type failingSource[T any] struct {
	vals []T
	err  error
}

func (s *failingSource[T]) ReadBatch(dst []T) (int, error) {
	if len(s.vals) == 0 && len(dst) > 0 {
		return 0, s.err
	}
	n := copy(dst, s.vals)
	s.vals = s.vals[n:]
	return n, nil
}

// readOne reads a single element through the batch protocol.
func readOne[T any](s stream.BatchReader[T]) (T, error) {
	var one [1]T
	_, err := s.ReadBatch(one[:])
	return one[0], err
}

func (s *failingSource[T]) Close() error { return nil }

// recordKeyLong is KeyRecord16 padded to a 16-byte key: the same order and
// the same cached word, but a word that is not the whole key, so the tree
// asks the comparator on every word tie even where it would not need to —
// the shape of every variable-width or longer key.
type recordKeyLong struct{ codec.KeyRecord16 }

func (k recordKeyLong) AppendKey(buf []byte, r record.Record) []byte {
	return append(k.KeyRecord16.AppendKey(buf, r), make([]byte, 8)...)
}

func (recordKeyLong) FixedKeySize() int { return 16 }

// recordShapes is every way the one tree is built over records: unkeyed,
// keyed on a word that is the whole key, and keyed on the word of a longer
// key.
var recordShapes = []struct {
	name string
	kc   codec.KeyCodec[record.Record]
}{
	{"comparator", nil},
	{"prefix", codec.KeyRecord16{}},
	{"long-key", recordKeyLong{}},
}

// keyThenAux refines record.Less on key ties: a total order over records
// with distinct Aux, which KeyRecord16's bytes only coarsen.
func keyThenAux(a, b record.Record) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Aux < b.Aux
}

// recordCases are the source sets the keyed shapes are held to: heavy key
// duplication with distinguishable Aux payloads under the plain comparator
// (sequence equality between shapes then checks tie placement, not just key
// order), the same under the tie-refining comparator (one correct output),
// and a set where every key ties.
var recordCases = []struct {
	name string
	keys int64
	less func(a, b record.Record) bool
}{
	{"dup-heavy", 64, record.Less},
	{"dup-heavy, refining comparator", 64, keyThenAux},
	{"all ties", 1, record.Less},
	{"all ties, refining comparator", 1, keyThenAux},
}

// buildRecordSources produces k runs sorted by less over keys distinct key
// values, Aux a serial number shuffled within each run.
func buildRecordSources(seed int64, k int, keys int64, less func(a, b record.Record) bool) func() []Source[record.Record] {
	return func() []Source[record.Record] {
		rng := rand.New(rand.NewSource(seed))
		srcs := make([]Source[record.Record], k)
		serial := uint64(0)
		for i := 0; i < k; i++ {
			n := rng.Intn(120)
			recs := make([]record.Record, n)
			for j := range recs {
				serial++
				recs[j] = record.Record{Key: rng.Int63n(keys), Aux: serial}
			}
			rng.Shuffle(n, func(a, b int) { recs[a], recs[b] = recs[b], recs[a] })
			sort.SliceStable(recs, func(a, b int) bool { return less(recs[a], recs[b]) })
			srcs[i] = genSrcOf(recs)
		}
		return srcs
	}
}

func drainAll[T any](t *testing.T, s Source[T]) []T {
	t.Helper()
	out, err := stream.ReadAllCancel[T](s, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// treeOutput merges the sources through the tree newTree builds for kc and
// returns the output.
func treeOutput[T any](t *testing.T, srcs []Source[T], less func(a, b T) bool, kc codec.KeyCodec[T]) []T {
	t.Helper()
	lt, err := newTree(srcs, less, kc)
	if err != nil {
		t.Fatal(err)
	}
	out := drainAll[T](t, lt)
	if err := lt.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceOutput merges the sources through the reference HeapMerger and
// checks it against sort.SliceStable of everything the sources hold: the
// heap's output must be sorted under less and a permutation of the input.
func referenceOutput[T comparable](t *testing.T, build func() []Source[T], less func(a, b T) bool) []T {
	t.Helper()
	hm, err := NewHeapMerger(build(), less)
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll[T](t, hm)
	hm.Close()
	var all []T
	for _, s := range build() {
		all = append(all, drainAll(t, s)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return less(all[i], all[j]) })
	if len(got) != len(all) {
		t.Fatalf("heap merger emitted %d elements of %d", len(got), len(all))
	}
	count := make(map[T]int, len(all))
	for i := range all {
		if less(got[i], all[i]) || less(all[i], got[i]) {
			t.Fatalf("heap merger element %d = %v, sort.SliceStable has %v", i, got[i], all[i])
		}
		count[got[i]]++
		count[all[i]]--
	}
	for v, c := range count {
		if c != 0 {
			t.Fatalf("heap merger output is not a permutation of the input: %v off by %d", v, c)
		}
	}
	return got
}

// sameOrder fails unless got and want agree position by position under
// less — the order is the same, whatever happened to ties.
func sameOrder[T any](t *testing.T, what string, got, want []T, less func(a, b T) bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if less(got[i], want[i]) || less(want[i], got[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// sameElements fails unless got is want, element for element: the two
// engines made pointwise-equal winner decisions, ties included.
func sameElements[T comparable](t *testing.T, what string, got, want []T) {
	t.Helper()
	if !slices.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: lengths %d and %d, first difference at element %d (tie placement differs)",
			what, len(got), len(want), i)
	}
}

// checkRecordShape holds one keyed shape of the tree to the unkeyed tree
// (element for element, Aux included) and to the reference HeapMerger (same
// order under less) over every recordCases row at fan-in 1..9.
func checkRecordShape(t *testing.T, kc codec.KeyCodec[record.Record]) {
	for _, tc := range recordCases {
		for trial := int64(0); trial < 20; trial++ {
			build := buildRecordSources(trial, 1+int(trial%9), tc.keys, tc.less)
			ref := referenceOutput(t, build, tc.less)
			want := treeOutput(t, build(), tc.less, nil)
			sameOrder(t, tc.name+": unkeyed tree vs heap merger", want, ref, tc.less)
			got := treeOutput(t, build(), tc.less, kc)
			sameElements(t, tc.name+": keyed tree vs unkeyed tree", got, want)
		}
	}
}

// TestPrefixTreeMatchesLoserTree pins the tree keyed on the cached word
// against the unkeyed tree on duplicate-heavy record runs: the output
// sequences must be identical element-for-element (Aux included), i.e. the
// two make pointwise-equal winner decisions — under the plain comparator,
// where key ties are element ties, and under one that refines them.
func TestPrefixTreeMatchesLoserTree(t *testing.T) {
	checkRecordShape(t, codec.KeyRecord16{})
}

// TestLongKeyTreeMatchesLoserTree pins the tree keyed on the word of a key
// longer than the word against the unkeyed tree: on the record cases (a
// non-total key, so every word tie ends in the comparator) and on
// variable-length string runs with long shared prefixes — words that tie
// on keys that differ — and duplicate keys across sources.
func TestLongKeyTreeMatchesLoserTree(t *testing.T) {
	checkRecordShape(t, recordKeyLong{})

	words := []string{"", "a", "aa", "aaaaaaaaaaaaaaaab", "aaaaaaaaaaaaaaaac",
		"prefix/shared/deep/x", "prefix/shared/deep/y", "prefix/shared/z",
		"zz", "\x00", "\x00\x01", "\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xffz"}
	less := func(a, b string) bool { return a < b }
	for trial := int64(0); trial < 20; trial++ {
		k := 1 + int(trial%7)
		build := func() []Source[string] {
			rng := rand.New(rand.NewSource(trial))
			srcs := make([]Source[string], k)
			for i := 0; i < k; i++ {
				n := rng.Intn(100)
				vals := make([]string, n)
				for j := range vals {
					w := words[rng.Intn(len(words))]
					if rng.Intn(2) == 0 {
						w += strings.Repeat("x", rng.Intn(30))
					}
					vals[j] = w
				}
				sort.Strings(vals)
				srcs[i] = genSrcOf(vals)
			}
			return srcs
		}
		want := referenceOutput(t, build, less)
		sameElements(t, "keyed tree vs heap merger", treeOutput(t, build(), less, codec.KeyString{}), want)
		sameElements(t, "unkeyed tree vs heap merger", treeOutput(t, build(), less, nil), want)
	}
}

// TestLongKeyTreeSharedPrefixVsHeapMerger merges strings whose decisive
// byte sits far past the 8-byte word: every word ties, and every match is
// the comparator's.
func TestLongKeyTreeSharedPrefixVsHeapMerger(t *testing.T) {
	const shared = "this-shared-prefix-is-much-longer-than-eight-bytes/"
	build := func() []Source[string] {
		rng := rand.New(rand.NewSource(99))
		srcs := make([]Source[string], 6)
		for i := range srcs {
			vals := make([]string, 200)
			for j := range vals {
				vals[j] = shared + string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
			}
			sort.Strings(vals)
			srcs[i] = genSrcOf(vals)
		}
		return srcs
	}
	less := func(a, b string) bool { return a < b }
	want := referenceOutput(t, build, less)
	sameElements(t, "keyed tree vs heap merger", treeOutput(t, build(), less, codec.KeyString{}), want)
}

// TestKeyedEnginesEmptyAndSingle covers the degenerate inputs for every
// shape of the tree: no sources, all-empty sources around a lone element,
// and a source that fails mid-batch.
func TestKeyedEnginesEmptyAndSingle(t *testing.T) {
	for _, sh := range recordShapes {
		lt, err := newTree(nil, record.Less, sh.kc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := readOne(lt); err != io.EOF {
			t.Fatalf("%s: empty tree Read = %v, want io.EOF", sh.name, err)
		}
		if n, err := lt.ReadBatch(make([]record.Record, 4)); n != 0 || err != io.EOF {
			t.Fatalf("%s: empty tree ReadBatch = %d, %v, want io.EOF", sh.name, n, err)
		}
		lt.Close()

		got := treeOutput(t, []Source[record.Record]{
			genSrcOf([]record.Record(nil)),
			genSrcOf([]record.Record{{Key: 5, Aux: 1}}),
			genSrcOf([]record.Record(nil)),
		}, record.Less, sh.kc)
		if len(got) != 1 || got[0].Key != 5 {
			t.Fatalf("%s: got %v, want the single record", sh.name, got)
		}

		// A source error in the middle of a batch: the elements merged so
		// far come back first, the error on the next call — and a Read at a
		// time sees exactly the same sequence.
		boom := errors.New("source failed")
		failing := func() []Source[record.Record] {
			return []Source[record.Record]{
				&failingSource[record.Record]{vals: record.FromKeys(1, 3, 5), err: boom},
				genSrcOf(record.FromKeys(2, 4, 6, 8)),
			}
		}
		lt, err = newTree(failing(), record.Less, sh.kc)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]record.Record, 8)
		n, err := lt.ReadBatch(buf)
		if n != 5 || err != nil {
			t.Fatalf("%s: first ReadBatch = %d, %v, want the 5 elements before the failure", sh.name, n, err)
		}
		for i, r := range buf[:n] {
			if r.Key != int64(i+1) {
				t.Fatalf("%s: partial batch %v, want keys 1..5", sh.name, buf[:n])
			}
		}
		if n, err := lt.ReadBatch(buf); n != 0 || err != boom {
			t.Fatalf("%s: second ReadBatch = %d, %v, want the source error", sh.name, n, err)
		}
		lt.Close()

		lt, _ = newTree(failing(), record.Less, sh.kc)
		for want := int64(1); want <= 5; want++ {
			if r, err := readOne(lt); err != nil || r.Key != want {
				t.Fatalf("%s: Read = %+v, %v, want key %d", sh.name, r, err, want)
			}
		}
		if _, err := readOne(lt); err != boom {
			t.Fatalf("%s: Read past the failure = %v, want the source error", sh.name, err)
		}
		lt.Close()
	}
}

// benchFanIns are the merge widths the microbenchmarks time: the benchmark
// suite's spill_merge fan-in and the thesis optimum.
var benchFanIns = []int{4, 10}

// benchTotal is how many elements one microbenchmark merge moves.
const benchTotal = 1 << 20

// benchRuns deals benchTotal elements into k runs sorted by less.
func benchRuns[T any](k int, elem func(rng *rand.Rand, serial uint64) T, less func(a, b T) bool) [][]T {
	rng := rand.New(rand.NewSource(3))
	runs := make([][]T, k)
	serial := uint64(0)
	for i := range runs {
		run := make([]T, benchTotal/k)
		for j := range run {
			serial++
			run[j] = elem(rng, serial)
		}
		sort.SliceStable(run, func(a, b int) bool { return less(run[a], run[b]) })
		runs[i] = run
	}
	return runs
}

func benchRecordRuns(k int) [][]record.Record {
	return benchRuns(k, func(rng *rand.Rand, serial uint64) record.Record {
		return record.Record{Key: rng.Int63n(1 << 30), Aux: serial}
	}, record.Less)
}

func benchInt64Runs(k int) [][]int64 {
	return benchRuns(k, func(rng *rand.Rand, _ uint64) int64 { return rng.Int63n(1 << 30) }, lessInt64)
}

func lessInt64(a, b int64) bool { return a < b }

// benchVocab is the word list of the strings example: keys like
// "kiwi-mango-000042-xyz…", 17 to 63 bytes long.
var benchVocab = []string{
	"amber", "birch", "cobalt", "dune", "ember", "fjord", "glacier",
	"harbor", "iris", "juniper", "kiwi", "lagoon", "mango", "nectar",
	"onyx", "pearl", "quartz", "raven", "sable", "tundra",
}

// benchStringRuns deals benchTotal strings of the strings example's shape,
// each after prefix, into k sorted runs.
func benchStringRuns(k int, prefix string) [][]string {
	return benchRuns(k, func(rng *rand.Rand, _ uint64) string {
		tail := make([]byte, rng.Intn(41))
		for i := range tail {
			tail[i] = byte('a' + rng.Intn(26))
		}
		return fmt.Sprintf("%s%s-%s-%06d-%s", prefix, benchVocab[rng.Intn(len(benchVocab))],
			benchVocab[rng.Intn(len(benchVocab))], rng.Intn(1_000_000), tail)
	}, lessString)
}

func lessString(a, b string) bool { return a < b }

// engineOpener builds a merge engine over sources.
type engineOpener[T any] func([]Source[T]) (Source[T], error)

func treeOpener[T any](less func(a, b T) bool, kc codec.KeyCodec[T]) engineOpener[T] {
	return func(srcs []Source[T]) (Source[T], error) { return newTree(srcs, less, kc) }
}

// mergeInto merges the runs through the engine open builds, a batch at a
// time, into out, and returns how many elements arrived.
func mergeInto[T any](tb testing.TB, runs [][]T, open engineOpener[T], out []T) int {
	srcs := make([]Source[T], len(runs))
	for i, run := range runs {
		srcs[i] = genSrcOf(run)
	}
	eng, err := open(srcs)
	if err != nil {
		tb.Fatal(err)
	}
	defer eng.Close()
	n := 0
	for n < len(out) {
		m, err := eng.ReadBatch(out[n:min(n+stream.DefaultBatchLen, len(out))])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return n
}

// benchMerge times the merge of the runs — built and sorted by the caller,
// outside the timed region — through the engine open builds and reports
// ns/rec. Every iteration holds the output to want element for element, off
// the clock, so a -benchtime 1x run doubles as a correctness gate.
func benchMerge[T comparable](b *testing.B, runs [][]T, want []T, open engineOpener[T]) {
	out := make([]T, len(want))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := mergeInto(b, runs, open, out)
		b.StopTimer()
		if !slices.Equal(out[:n], want) {
			b.Fatalf("merge diverged from the reference output (%d elements of %d)", n, len(want))
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(want)), "ns/rec")
}

// BenchmarkKeyedVsComparatorMerge is the CI microbenchmark guard: the same
// merge of 2^20 records through the unkeyed tree, a word that is the whole
// key and the word of a longer key; of 2^20 int64s under their total key;
// and of 2^20 strings — vocabulary words, and the same after a shared
// "https://example.com/" — unkeyed and keyed, at fan-in 4 and 10. The
// reference output is the unkeyed tree's, tie placement included.
func BenchmarkKeyedVsComparatorMerge(b *testing.B) {
	for _, k := range benchFanIns {
		recs := benchRecordRuns(k)
		want := make([]record.Record, benchTotal)
		want = want[:mergeInto(b, recs, treeOpener(record.Less, nil), want)]
		for _, sh := range recordShapes {
			b.Run(fmt.Sprintf("fanin=%d/%s", k, sh.name), func(b *testing.B) {
				benchMerge(b, recs, want, treeOpener(record.Less, sh.kc))
			})
		}
		ints := benchInt64Runs(k)
		wantInts := slices.Concat(ints...)
		slices.Sort(wantInts)
		b.Run(fmt.Sprintf("fanin=%d/total-int64", k), func(b *testing.B) {
			benchMerge(b, ints, wantInts, treeOpener[int64](lessInt64, codec.KeyInt64{}))
		})
		for _, set := range []struct{ name, prefix string }{{"vocab", ""}, {"url", "https://example.com/"}} {
			strs := benchStringRuns(k, set.prefix)
			wantStrs := make([]string, benchTotal)
			wantStrs = wantStrs[:mergeInto(b, strs, treeOpener(lessString, nil), wantStrs)]
			for _, sh := range []struct {
				name string
				kc   codec.KeyCodec[string]
			}{{"comparator", nil}, {"keyed", codec.KeyString{}}} {
				b.Run(fmt.Sprintf("fanin=%d/%s-%s", k, set.name, sh.name), func(b *testing.B) {
					benchMerge(b, strs, wantStrs, treeOpener(lessString, sh.kc))
				})
			}
		}
	}
}

// BenchmarkAblationMergeEngine holds the loser tree beside the reference
// heap merger, both deciding by the comparator alone, over int64s — equal
// keys are equal elements, so both are held to the sorted input.
func BenchmarkAblationMergeEngine(b *testing.B) {
	for _, k := range benchFanIns {
		ints := benchInt64Runs(k)
		want := slices.Concat(ints...)
		slices.Sort(want)
		b.Run(fmt.Sprintf("fanin=%d/losertree", k), func(b *testing.B) {
			benchMerge(b, ints, want, treeOpener(lessInt64, nil))
		})
		b.Run(fmt.Sprintf("fanin=%d/heap", k), func(b *testing.B) {
			benchMerge(b, ints, want, func(srcs []Source[int64]) (Source[int64], error) {
				return NewHeapMerger(srcs, lessInt64)
			})
		})
	}
}
