package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/record"
)

// The operator verification suite: every operator, on every one of the
// paper's six input distributions, against a plain in-memory reference —
// once over the fixed-width Record codec and once over the variable-width
// string codec. The comparators are total orders, so the expected output is
// fully determined.

// opTestN is the per-distribution input size (dup-heavy by construction).
func opTestN(t *testing.T) int {
	if testing.Short() {
		return 1500
	}
	return 4000
}

// totalRecLess orders records by (key, aux): a total order, unlike the
// classic key-only record.Less, so duplicate elimination and top-k have
// deterministic expected outputs.
func totalRecLess(a, b Record) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Aux < b.Aux
}

// opRecords folds a gen distribution into a duplicate-heavy record set: the
// distribution's shape drives the arrival order, and the modulus guarantees
// every operator has real work (duplicates, multi-member groups).
func opRecords(kind gen.Kind, n int, seed int64) []Record {
	raw := gen.Generate(gen.Config{Kind: kind, N: n, Seed: seed, Noise: 1000})
	recs := make([]Record, n)
	for i, r := range raw {
		recs[i] = Record{Key: ((r.Key % 499) + 499) % 499, Aux: uint64(i % 7)}
	}
	return recs
}

// opStrings maps the same construction onto variable-width strings.
func opStrings(kind gen.Kind, n int, seed int64) []string {
	recs := opRecords(kind, n, seed)
	strs := make([]string, n)
	for i, r := range recs {
		strs[i] = fmt.Sprintf("k%06d-%d", r.Key, r.Aux)
	}
	return strs
}

func sortedRecs(in []Record) []Record {
	s := append([]Record(nil), in...)
	sort.Slice(s, func(i, j int) bool { return totalRecLess(s[i], s[j]) })
	return s
}

// recSorter orders records by totalRecLess and brings that comparator's own
// key codec: Key, then Aux, 16 bytes and total, so the operators run on a
// key longer than the cached word. (The Key-only codec New would infer for
// Record serves too — totalRecLess refines it, and key ties go back to the
// comparator; TestDistinctMatchesReferenceAllDistributions has that cell.)
func recSorter(t *testing.T, opts ...Option) *Sorter[Record] {
	t.Helper()
	kc, err := CompositeKeyCodec[Record](16, true,
		func(buf []byte, r Record) []byte { return AppendKeyInt64(buf, r.Key) },
		func(buf []byte, r Record) []byte { return AppendKeyUint64(buf, r.Aux) })
	if err != nil {
		t.Fatal(err)
	}
	base := []Option{WithMemoryRecords(256), WithCodec(RecordCodec()), WithKey(record.Key), WithSeed(9), WithKeyCodec(kc)}
	s, err := New(totalRecLess, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func strSorter(t *testing.T, opts ...Option) *Sorter[string] {
	t.Helper()
	base := []Option{WithMemoryRecords(256), WithSeed(9)}
	s, err := New(func(a, b string) bool { return a < b }, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func requireEqual[T comparable](t *testing.T, label string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestDistinctMatchesReferenceAllDistributions(t *testing.T) {
	n := opTestN(t)
	for _, kind := range gen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			// Fixed-width records.
			in := opRecords(kind, n, 21)
			var want []Record
			for i, v := range sortedRecs(in) {
				if i == 0 || v != want[len(want)-1] {
					want = append(want, v)
				}
			}
			var out sliceSink[Record]
			st, err := recSorter(t).Distinct(context.Background(), newSliceSource(in), &out)
			if err != nil {
				t.Fatal(err)
			}
			requireEqual(t, "records", out.vals, want)
			if !st.Sorted || st.In != int64(n) || st.Out != int64(len(want)) || st.Sort.Runs < 2 {
				t.Fatalf("stats %+v: want a genuine external sorted distinct", st)
			}

			// Variable-width strings.
			sin := opStrings(kind, n, 22)
			swant := append([]string(nil), sin...)
			sort.Strings(swant)
			uniq := swant[:0]
			for i, v := range swant {
				if i == 0 || v != uniq[len(uniq)-1] {
					uniq = append(uniq, v)
				}
			}
			var sout sliceSink[string]
			if _, err := strSorter(t).Distinct(context.Background(), newSliceSource(sin), &sout); err != nil {
				t.Fatal(err)
			}
			requireEqual(t, "strings", sout.vals, uniq)
		})
	}

	// The codec New infers for Record keys on Key alone, which totalRecLess
	// refines: duplicates still have to meet in the merged stream, so every
	// key tie must reach the comparator.
	t.Run("inferred key codec", func(t *testing.T) {
		in := refiningRecords(n)
		var want []Record
		for i, v := range sortedRecs(in) {
			if i == 0 || v != want[len(want)-1] {
				want = append(want, v)
			}
		}
		s, err := New(totalRecLess, WithMemoryRecords(256), WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		var out sliceSink[Record]
		st, err := s.Distinct(context.Background(), newSliceSource(in), &out)
		if err != nil {
			t.Fatal(err)
		}
		requireEqual(t, "records", out.vals, want)
		if !st.Sort.Keyed || st.Sort.Runs < 2 || st.Out != int64(len(want)) {
			t.Fatalf("stats %+v: want a keyed external sorted distinct", st)
		}
	})
}

func TestGroupByMatchesReferenceAllDistributions(t *testing.T) {
	n := opTestN(t)
	sameKey := func(a, b Record) bool { return a.Key == b.Key }
	sumAux := func(acc, v Record) Record { return Record{Key: acc.Key, Aux: acc.Aux + v.Aux} }
	for _, kind := range gen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			in := opRecords(kind, n, 31)
			// Reference: fold each key class in sorted order (which is how the
			// merged stream delivers it).
			var want []Record
			for _, v := range sortedRecs(in) {
				if len(want) > 0 && want[len(want)-1].Key == v.Key {
					want[len(want)-1].Aux += v.Aux
					continue
				}
				want = append(want, v)
			}
			var out sliceSink[Record]
			st, err := recSorter(t).GroupBy(context.Background(), newSliceSource(in), sameKey, sumAux, &out)
			if err != nil {
				t.Fatal(err)
			}
			requireEqual(t, "records", out.vals, want)
			if st.Groups != int64(len(want)) || st.Out != st.Groups || st.In != int64(n) {
				t.Fatalf("stats %+v: want %d groups", st, len(want))
			}

			// Variable-width strings: group by the key prefix, reduce by
			// appending each member's trailing digit — order-sensitive on
			// purpose, pinned by the deterministic merged order.
			sin := opStrings(kind, n, 32)
			sSame := func(a, b string) bool { return a[:7] == b[:7] }
			sReduce := func(acc, v string) string { return acc + v[len(v)-1:] }
			ssorted := append([]string(nil), sin...)
			sort.Strings(ssorted)
			var swant []string
			for _, v := range ssorted {
				if len(swant) > 0 && sSame(swant[len(swant)-1], v) {
					swant[len(swant)-1] += v[len(v)-1:]
					continue
				}
				swant = append(swant, v)
			}
			var sout sliceSink[string]
			if _, err := strSorter(t).GroupBy(context.Background(), newSliceSource(sin), sSame, sReduce, &sout); err != nil {
				t.Fatal(err)
			}
			requireEqual(t, "strings", sout.vals, swant)
		})
	}
}

func TestTopKMatchesReferenceAllDistributions(t *testing.T) {
	n := opTestN(t)
	for _, kind := range gen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			in := opRecords(kind, n, 41)
			sorted := sortedRecs(in)
			for _, k := range []int{1, 37, 200} {
				var out sliceSink[Record]
				st, err := recSorter(t).TopK(context.Background(), newSliceSource(in), k, &out)
				if err != nil {
					t.Fatal(err)
				}
				requireEqual(t, fmt.Sprintf("records k=%d", k), out.vals, sorted[:k])
				// k ≪ N and k ≤ memory: the bounded selection path must have
				// engaged — no sort, no runs, no spill.
				if st.Sorted || st.Sort.Runs != 0 || st.Sort.MergeOps != 0 {
					t.Fatalf("k=%d: stats %+v: bounded top-k ran a full sort", k, st)
				}
				if st.In != int64(n) || st.Out != int64(k) {
					t.Fatalf("k=%d: stats %+v", k, st)
				}
			}

			sin := opStrings(kind, n, 42)
			ssorted := append([]string(nil), sin...)
			sort.Strings(ssorted)
			var sout sliceSink[string]
			if _, err := strSorter(t).TopK(context.Background(), newSliceSource(sin), 50, &sout); err != nil {
				t.Fatal(err)
			}
			requireEqual(t, "strings k=50", sout.vals, ssorted[:50])
		})
	}
}

// TestTopKExternalFallback forces k beyond the memory budget: the operator
// must fall back to run generation, stream the merged order, and still cut
// off after exactly k elements.
func TestTopKExternalFallback(t *testing.T) {
	n := opTestN(t)
	in := opRecords(gen.Random, n, 43)
	k := 600 // > the sorter's 256-record budget
	var out sliceSink[Record]
	st, err := recSorter(t).TopK(context.Background(), newSliceSource(in), k, &out)
	if err != nil {
		t.Fatal(err)
	}
	requireEqual(t, "external top-k", out.vals, sortedRecs(in)[:k])
	if !st.Sorted || st.Sort.Runs < 2 {
		t.Fatalf("stats %+v: expected the external path", st)
	}
	if st.Out != int64(k) {
		t.Fatalf("emitted %d, want %d", st.Out, k)
	}

	// The operator layer hands the driver the bundle Sort does: an int64
	// sorter's spilling operators run keyed, WithoutKeys turns that off, a
	// key codec that contradicts the comparator is refused, and the output
	// does not depend on which.
	ints := make([]int64, n)
	for i, r := range in {
		ints[i] = r.Key*7 + int64(r.Aux)
	}
	less := func(a, b int64) bool { return a < b }
	var outs [2]sliceSink[int64]
	for i, opts := range [][]Option{{}, {WithoutKeys()}} {
		s, err := New(less, append(opts, WithMemoryRecords(256))...)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.TopK(context.Background(), newSliceSource(ints), k, &outs[i])
		if err != nil {
			t.Fatal(err)
		}
		if keyed := len(opts) == 0; !st.Sorted || st.Sort.Keyed != keyed {
			t.Fatalf("int64 top-k with options %d: Sorted=%v Keyed=%v, want the external path with Keyed=%v", i, st.Sorted, st.Sort.Keyed, keyed)
		}
	}
	requireEqual(t, "keyed vs comparator top-k", outs[0].vals, outs[1].vals)
	desc, err := New(func(a, b int64) bool { return a > b }, WithKeyCodec(Int64KeyCodec()), WithMemoryRecords(256))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := desc.Distinct(context.Background(), newSliceSource(ints), &sliceSink[int64]{}); err == nil {
		t.Fatal("Distinct accepted an explicit key codec that disagrees with the comparator")
	}
}

func TestMergeJoinMatchesReferenceAllDistributions(t *testing.T) {
	n := opTestN(t)
	type row struct {
		Key    int64
		LA, RA uint64
	}
	cmp := func(l, r Record) int {
		switch {
		case l.Key < r.Key:
			return -1
		case l.Key > r.Key:
			return 1
		}
		return 0
	}
	join := func(l, r Record) row { return row{Key: l.Key, LA: l.Aux, RA: r.Aux} }
	for _, kind := range gen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			// Fold the key space harder so every key class is small enough for
			// the quadratic reference but still many-to-many.
			shrink := func(recs []Record) []Record {
				out := make([]Record, len(recs))
				for i, r := range recs {
					out[i] = Record{Key: r.Key % 113, Aux: r.Aux}
				}
				return out
			}
			left := shrink(opRecords(kind, n/2, 51))
			right := shrink(opRecords(kind, n/2, 52))

			lsorted, rsorted := sortedRecs(left), sortedRecs(right)
			var want []row
			for _, l := range lsorted {
				for _, r := range rsorted {
					if l.Key == r.Key {
						want = append(want, join(l, r))
					}
				}
			}

			var out sliceSink[row]
			st, err := MergeJoin(context.Background(),
				recSorter(t), newSliceSource(left),
				recSorter(t), newSliceSource(right),
				cmp, join, &out)
			if err != nil {
				t.Fatal(err)
			}
			requireEqual(t, "join", out.vals, want)
			if st.Out != int64(len(want)) || st.LeftIn != int64(len(left)) || st.RightIn != int64(len(right)) {
				t.Fatalf("stats %+v: want %d rows", st, len(want))
			}
			if st.Left.Runs < 2 || st.Right.Runs < 2 {
				t.Fatalf("stats %+v: both sides should have spilled runs", st)
			}
		})
	}
}

// TestMergeJoinSharedTempDir pins the file namespacing: both sides of a
// join sorting into one real directory must not collide.
func TestMergeJoinSharedTempDir(t *testing.T) {
	dir := t.TempDir()
	n := 3000
	left := opRecords(gen.MixedBalanced, n, 61)
	right := opRecords(gen.Alternating, n, 62)
	cmp := func(l, r Record) int {
		switch {
		case l.Key < r.Key:
			return -1
		case l.Key > r.Key:
			return 1
		}
		return 0
	}
	var out sliceSink[int64]
	st, err := MergeJoin(context.Background(),
		recSorter(t, WithTempDir(dir)), newSliceSource(left),
		recSorter(t, WithTempDir(dir)), newSliceSource(right),
		cmp, func(l, r Record) int64 { return l.Key }, &out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Out == 0 {
		t.Fatalf("stats %+v: expected matches", st)
	}
}

func TestOperatorContextCancellation(t *testing.T) {
	// Distinct over an endless source can only terminate via the context.
	ctx, cancel := context.WithCancel(context.Background())
	s, err := New(func(a, b int64) bool { return a < b }, WithMemoryRecords(128))
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	src := sourceFunc[int64](func() (int64, error) {
		reads++
		if reads == 8000 {
			cancel()
		}
		return int64(reads % 321), nil
	})
	var out discardSink[int64]
	if _, err := s.Distinct(ctx, src, &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("Distinct returned %v, want context.Canceled", err)
	}
	if reads > 8000+2048 {
		t.Fatalf("source read %d times after cancellation", reads)
	}

	// TopK's bounded path polls the same cadence.
	ctx2, cancel2 := context.WithCancel(context.Background())
	reads = 0
	src2 := sourceFunc[int64](func() (int64, error) {
		reads++
		if reads == 5000 {
			cancel2()
		}
		return int64(reads % 77), nil
	})
	if _, err := s.TopK(ctx2, src2, 10, &out); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopK returned %v, want context.Canceled", err)
	}
	if reads > 5000+2048 {
		t.Fatalf("TopK read %d times after cancellation", reads)
	}
}

func TestOperatorArgumentValidation(t *testing.T) {
	s, err := New(func(a, b int64) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	var out sliceSink[int64]
	if _, err := s.GroupBy(context.Background(), newSliceSource([]int64{1}), nil, nil, &out); err == nil {
		t.Fatal("GroupBy without reduce should be rejected")
	}
	if _, err := s.TopK(context.Background(), newSliceSource([]int64{1}), -3, &out); err == nil {
		t.Fatal("negative k should be rejected")
	}
	if _, err := MergeJoin[int64, int64, int64](context.Background(), nil, nil, nil, nil, nil, nil, &out); err == nil {
		t.Fatal("MergeJoin without sorters should be rejected")
	}
	var zero sliceSink[int64]
	st, err := s.TopK(context.Background(), newSliceSource([]int64{3, 1, 2}), 0, &zero)
	if err != nil || st.Out != 0 || len(zero.vals) != 0 {
		t.Fatalf("k=0: %+v, %v", st, err)
	}
}

// sliceSource / sliceSink are minimal element-at-a-time endpoints for the
// operator tests (sourceFunc/discardSink live in sorter_test.go).
type sliceSource[T any] struct {
	vals []T
	pos  int
}

func newSliceSource[T any](vals []T) *sliceSource[T] { return &sliceSource[T]{vals: vals} }

func (s *sliceSource[T]) Read() (T, error) {
	if s.pos >= len(s.vals) {
		var zero T
		return zero, io.EOF
	}
	v := s.vals[s.pos]
	s.pos++
	return v, nil
}

type sliceSink[T any] struct{ vals []T }

func (s *sliceSink[T]) Write(v T) error {
	s.vals = append(s.vals, v)
	return nil
}
