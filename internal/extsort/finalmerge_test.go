package extsort

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/gen"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// keyThenAux is a total comparator over records: no two records it ties
// differ.
func keyThenAux(a, b record.Record) bool { return a.Key < b.Key || a.Key == b.Key && a.Aux < b.Aux }

// TestFinalMergeIdenticalAtEveryParallelism sorts the six gen datasets under
// every policy, keyed and without keys, at Parallelism 1, 2, 4 and 8: the
// final merge's tree streams on the consumer's goroutine at 1 and on a
// producer of its own above. The output is byte for byte the same at every
// setting, under record.Less, which orders on the key alone and so leaves
// where equal-key records land to the tree, and under a total comparator.
// The budget makes 2WRS write backward runs and, on alternating input,
// overlap runs.
func TestFinalMergeIdenticalAtEveryParallelism(t *testing.T) {
	kinds := []gen.Kind{gen.Sorted, gen.ReverseSorted, gen.Alternating, gen.Random, gen.MixedBalanced, gen.MixedImbalanced}
	policies := []policy.Kind{policy.TwoWayRS, policy.RS, policy.Alternating, policy.Quick, policy.Auto}
	type shape struct {
		name string
		ops  Ops[record.Record]
	}
	shapes := []shape{
		{"keyed", RecordOps()},
		{"without-keys", Ops[record.Record]{Less: record.Less, Codec: codec.Record16{}, Key: record.Key}},
		{"total-keyed", Ops[record.Record]{Less: keyThenAux, Codec: codec.Record16{}, Key: record.Key, KeyCodec: codec.KeyRecord16{}}},
		{"total-without-keys", Ops[record.Record]{Less: keyThenAux, Codec: codec.Record16{}, Key: record.Key}},
	}
	n := 16_000
	if testing.Short() { // CI repeats it under the race detector
		n, policies = 8_000, []policy.Kind{policy.TwoWayRS, policy.Quick, policy.Auto}
		shapes = []shape{shapes[0], shapes[3]}
	}
	var overlap int64
	for _, kind := range kinds {
		recs := gen.Generate(gen.Config{Kind: kind, N: n, Seed: 6, Noise: 50})
		for _, pol := range policies {
			for _, sh := range shapes {
				var one []record.Record
				for _, par := range []int{1, 2, 4, 8} {
					name := fmt.Sprintf("%v/%v/%s/parallelism=%d", kind, pol, sh.name, par)
					cfg := Config{Policy: pol, Memory: 600, Parallelism: par}
					out, st, err := sortSlice(recs, cfg, sh.ops)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					overlap += st.OverlapRuns
					if par > 1 {
						if !slices.Equal(out, one) {
							t.Fatalf("%s: output differs from Parallelism 1's", name)
						}
						continue
					}
					one = out
					if !slices.IsSortedFunc(out, func(a, b record.Record) int { return compareBy(sh.ops.Less, a, b) }) ||
						!record.NewMultiset(out).Equal(record.NewMultiset(recs)) {
						t.Fatalf("%s: the output is not the sorted input", name)
					}
				}
			}
		}
	}
	if overlap == 0 {
		t.Fatal("no sort wrote an overlap run")
	}
}

// compareBy turns a less function into a three-way comparison.
func compareBy[T any](less func(a, b T) bool, a, b T) int {
	switch {
	case less(a, b):
		return -1
	case less(b, a):
		return 1
	}
	return 0
}

// TestFinalMergeStringsIdenticalAtEveryParallelism is the string half of
// the equivalence: variable-width elements on the key prefix codec, whose
// words are not whole keys, merge the same at every Parallelism.
func TestFinalMergeStringsIdenticalAtEveryParallelism(t *testing.T) {
	vals := make([]string, 40_000)
	for i := range vals {
		vals[i] = fmt.Sprintf("k-%06d-%s", (i*7919)%10007, strings.Repeat("x", i%13))
	}
	var one []string
	for _, par := range []int{1, 2, 4, 8} {
		ops := Ops[string]{Less: func(a, b string) bool { return a < b }, Codec: codec.String{}, KeyCodec: codec.KeyString{}}
		out, _, err := sortSlice(vals, Config{Policy: policy.RS, Memory: 1000, Parallelism: par}, ops)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if par == 1 {
			one = out
			if !slices.IsSorted(out) || len(out) != len(vals) {
				t.Fatal("parallelism 1: the output is not the sorted input")
			}
		} else if !slices.Equal(out, one) {
			t.Fatalf("parallelism %d: output differs from Parallelism 1's", par)
		}
	}
}

// TestFinalMergeBitFlipFailsLateBlock flips one bit of what a read of the
// last block of the largest run returns — read late in the final merge, by
// its producer goroutine — at Parallelism 2 and 4: the sort fails with a
// typed error and no goroutine of the merge is left.
func TestFinalMergeBitFlipFailsLateBlock(t *testing.T) {
	recs := testRecords(60000, 3)
	defer func(v func(vfs.FS) vfs.FS) { spillView = v }(spillView)
	for _, par := range []int{2, 4} {
		cfg := Config{Policy: policy.Quick, Memory: 4096, Parallelism: par}
		clean := &spillSizes{sizes: map[string]int64{}}
		spillView = func(fs vfs.FS) vfs.FS {
			clean.FS = fs
			return clean
		}
		if _, err := Sort(stream.NewSliceReader(recs), &stream.SliceWriter[record.Record]{}, vfs.NewMemFS(), cfg, RecordOps()); err != nil {
			t.Fatal(err)
		}
		var largest string
		for name, size := range clean.sizes {
			if largest == "" || size > clean.sizes[largest] || size == clean.sizes[largest] && name < largest {
				largest = name
			}
		}
		spillView = func(fs vfs.FS) vfs.FS {
			return faultfs.New(fs, faultfs.Options{FlipBit: (clean.sizes[largest]-9)*8 + 3, Match: func(name string, _ int64) bool {
				return name == largest
			}})
		}
		before := runtime.NumGoroutine()
		_, err := Sort(stream.NewSliceReader(recs), &stream.SliceWriter[record.Record]{}, vfs.NewMemFS(), cfg, RecordOps())
		if !errors.Is(err, storage.ErrChecksum) && !errors.Is(err, storage.ErrCorrupt) && !errors.Is(err, runio.ErrOutOfOrder) {
			t.Fatalf("parallelism %d: a flipped bit in %s gave %v, want a checksum, corruption or order error", par, largest, err)
		}
		n := runtime.NumGoroutine()
		for i := 0; i < 100 && n > before; i++ {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Fatalf("parallelism %d: %d goroutines after the failed sort, %d before", par, n, before)
		}
	}
}

// TestFinalMergeSkewedRuns merges one dense run among sparse ones: the
// dense run's batches span few keys, so the tree copies them out whole
// (the winner's stretch) between single elements of the others. The merge
// must still finish, sorted and the same, at every worker count.
func TestFinalMergeSkewedRuns(t *testing.T) {
	var recs []record.Record
	for i := range 40_000 { // dense: keys 0..39999 in one sorted stretch
		recs = append(recs, record.Record{Key: int64(i), Aux: 0})
	}
	for i := range 40_000 { // sparse: spread over a range 1,000 times wider
		recs = append(recs, record.Record{Key: int64(i*7919%40_000) * 1000, Aux: 1})
	}
	var one []record.Record
	for _, par := range []int{1, 2, 4} {
		out, st, err := sortSlice(recs, Config{Policy: policy.Quick, Memory: 4000, Parallelism: par}, RecordOps())
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if st.Runs < 10 || !record.IsSorted(out) || !record.NewMultiset(out).Equal(record.NewMultiset(recs)) {
			t.Fatalf("parallelism %d: %d runs; the output is not the sorted input", par, st.Runs)
		}
		if one == nil {
			one = out
		} else if !slices.Equal(out, one) {
			t.Fatalf("parallelism %d: output differs from Parallelism 1's", par)
		}
	}
}
