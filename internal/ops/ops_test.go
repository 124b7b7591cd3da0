package ops

import (
	"errors"
	"io"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stream"
)

func lessInt(a, b int64) bool { return a < b }
func eqInt(a, b int64) bool   { return a == b }

// refDistinct is the in-memory reference: sort, keep one per value.
func refDistinct(in []int64) []int64 {
	s := append([]int64(nil), in...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var out []int64
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func sortedCopy(in []int64) []int64 {
	s := append([]int64(nil), in...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func TestDistinctAtEveryBatchLength(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := make([]int64, 5000)
	for i := range in {
		in[i] = rng.Int63n(700) // heavy duplication
	}
	s := sortedCopy(in)
	want := refDistinct(in)

	// Deliberately awkward dst sizes, one element per call among them.
	for _, dstLen := range []int{1, 3, 64, 1024, 5000} {
		d := NewDistinct[int64](stream.NewSliceReader(s), eqInt)
		var got []int64
		buf := make([]int64, dstLen)
		for {
			n, err := d.ReadBatch(buf)
			got = append(got, buf[:n]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("dstLen %d: %d distinct, want %d", dstLen, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dstLen %d: got[%d] = %d, want %d", dstLen, i, got[i], want[i])
			}
		}
		if d.In() != int64(len(in)) {
			t.Fatalf("dstLen %d: In() = %d, want %d", dstLen, d.In(), len(in))
		}
	}
}

func TestDistinctEmptyAndSingle(t *testing.T) {
	d := NewDistinct[int64](stream.NewSliceReader[int64](nil), eqInt)
	if n, err := d.ReadBatch(make([]int64, 1)); n != 0 || err != io.EOF {
		t.Fatalf("empty stream: %d, err = %v, want EOF", n, err)
	}
	d = NewDistinct[int64](stream.NewSliceReader([]int64{7, 7, 7}), eqInt)
	got, err := stream.ReadAllCancel[int64](d, nil)
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestGroupBySumsAdjacentGroups(t *testing.T) {
	// Elements are (key*1000 + payload); group by key, reduce = sum of
	// payloads carried in the low digits.
	type kv struct{ k, sum int64 }
	rng := rand.New(rand.NewSource(2))
	n := 4000
	in := make([]int64, n)
	for i := range in {
		in[i] = rng.Int63n(97)*1000 + rng.Int63n(999)
	}
	s := sortedCopy(in)

	ref := map[int64]int64{}
	var keys []int64
	for _, v := range s {
		k := v / 1000
		if _, ok := ref[k]; !ok {
			keys = append(keys, k)
		}
		ref[k] += v % 1000
	}

	same := func(a, b int64) bool { return a/1000 == b/1000 }
	// acc keeps the group key in the high digits and accumulates payloads in
	// the low ones; payload sums stay below 1000*… safe in int64.
	reduce := func(acc, v int64) int64 { return acc + v%1000 }
	g := NewGroupBy[int64](stream.NewSliceReader(s), same, reduce)
	got, err := stream.ReadAllCancel[int64](g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("%d groups, want %d", len(got), len(keys))
	}
	var want []kv
	for _, k := range keys {
		want = append(want, kv{k, ref[k]})
	}
	for i, v := range got {
		// got[i] = k*1000 (from the group's first element) + payload sum.
		k := want[i].k
		if v-k*1000 != want[i].sum {
			t.Fatalf("group %d (key %d): payload sum %d, want %d", i, k, v-k*1000, want[i].sum)
		}
	}
	if g.Groups() != int64(len(keys)) || g.In() != int64(n) {
		t.Fatalf("Groups()=%d In()=%d, want %d/%d", g.Groups(), g.In(), len(keys), n)
	}
}

func TestGroupByTinyDst(t *testing.T) {
	s := []int64{1, 1, 2, 3, 3, 3, 4}
	g := NewGroupBy[int64](stream.NewSliceReader(s), eqInt, func(acc, v int64) int64 { return acc })
	buf := make([]int64, 1)
	var got []int64
	for {
		n, err := g.ReadBatch(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	want := []int64{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func cmpIntPair(l, r int64) int {
	switch {
	case l/1000 < r/1000:
		return -1
	case l/1000 > r/1000:
		return 1
	}
	return 0
}

func TestMergeJoinAgainstNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mkSide := func(n int, keys int64) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = rng.Int63n(keys)*1000 + rng.Int63n(999)
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	left, right := mkSide(1500, 80), mkSide(1200, 80)

	// Reference: nested loops over key classes, in sorted order both sides.
	var want []int64
	for _, l := range left {
		for _, r := range right {
			if l/1000 == r/1000 {
				want = append(want, l*1_000_000+r%1000)
			}
		}
	}

	var out stream.SliceWriter[int64]
	join := func(l, r int64) int64 { return l*1_000_000 + r%1000 }
	st, err := MergeJoin[int64, int64, int64](
		stream.NewSliceReader(left), stream.NewSliceReader(right),
		cmpIntPair, join, &out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Vals) != len(want) {
		t.Fatalf("%d joined rows, want %d", len(out.Vals), len(want))
	}
	for i := range want {
		if out.Vals[i] != want[i] {
			t.Fatalf("row %d: got %d, want %d", i, out.Vals[i], want[i])
		}
	}
	if st.Out != int64(len(want)) || st.LeftIn != int64(len(left)) || st.RightIn != int64(len(right)) {
		t.Fatalf("stats %+v inconsistent with %d rows", st, len(want))
	}
	if st.MaxGroup < 1 {
		t.Fatalf("MaxGroup = %d", st.MaxGroup)
	}
}

func TestMergeJoinDisjointAndEmpty(t *testing.T) {
	var out stream.SliceWriter[int64]
	st, err := MergeJoin[int64, int64, int64](
		stream.NewSliceReader([]int64{1000, 2000}), stream.NewSliceReader([]int64{5000, 6000}),
		cmpIntPair, func(l, r int64) int64 { return 0 }, &out, nil)
	if err != nil || len(out.Vals) != 0 {
		t.Fatalf("disjoint keys: %v rows, err %v", out.Vals, err)
	}
	if st.Out != 0 {
		t.Fatalf("stats %+v", st)
	}
	st, err = MergeJoin[int64, int64, int64](
		stream.NewSliceReader[int64](nil), stream.NewSliceReader([]int64{1}),
		cmpIntPair, func(l, r int64) int64 { return 0 }, &out, nil)
	if err != nil || st.Out != 0 {
		t.Fatalf("empty left: %+v, err %v", st, err)
	}
}

func TestMergeJoinCancellation(t *testing.T) {
	sentinel := errors.New("stop")
	n := 0
	endless := readFunc[int64](func() (int64, error) { n++; return int64(n) * 1000, nil })
	var out stream.SliceWriter[int64]
	_, err := MergeJoin[int64, int64, int64](
		stream.AsBatchReader[int64](endless), stream.AsBatchReader[int64](endless), cmpIntPair, func(l, r int64) int64 { return 0 }, &out,
		func() error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n > 3*cancelOps {
		t.Fatalf("consumed %d elements after cancellation", n)
	}
}

// readFunc adapts a closure to the element-at-a-time stream.Reader.
type readFunc[T any] func() (T, error)

func (f readFunc[T]) Read() (T, error) { return f() }
