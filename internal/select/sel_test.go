package sel

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/record"
	"repro/internal/stream"
)

// genRecords materialises n records of one distribution.
func genRecords(t *testing.T, kind gen.Kind, n int) []record.Record {
	t.Helper()
	g := gen.New(gen.Config{Kind: kind, N: n, Seed: 7, Noise: 1000})
	out := make([]record.Record, 0, n)
	for {
		r, err := g.Read()
		if err != nil {
			break
		}
		out = append(out, r)
	}
	if len(out) != n {
		t.Fatalf("generated %d records, want %d", len(out), n)
	}
	return out
}

// totalLess is a total order so reference positions are unambiguous even
// among equal keys.
func totalLess(a, b record.Record) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Aux < b.Aux
}

func sortedCopy(recs []record.Record) []record.Record {
	ref := append([]record.Record(nil), recs...)
	sort.Slice(ref, func(i, j int) bool { return totalLess(ref[i], ref[j]) })
	return ref
}

func TestPartitionAgainstSortReference(t *testing.T) {
	const n = 3000
	for _, kind := range gen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			recs := genRecords(t, kind, n)
			ref := sortedCopy(recs)
			for _, k := range []int{1, 2, n / 3, n / 2, n - 1, n} {
				for _, par := range []int{1, 4} {
					data := append([]record.Record(nil), recs...)
					Partition(data, k, totalLess, par)
					if got, want := data[0], ref[k-1]; got != want {
						t.Fatalf("k=%d par=%d: pivot = %v, want %v", k, par, got, want)
					}
					// The bottom region must be exactly the k smallest.
					bottom := sortedCopy(data[:k])
					for i := range bottom {
						if bottom[i] != ref[i] {
							t.Fatalf("k=%d par=%d: bottom region wrong at %d", k, par, i)
						}
					}
					if k < n {
						if got, want := data[k], ref[k]; got != want {
							t.Fatalf("k=%d par=%d: top root = %v, want %v", k, par, got, want)
						}
					}
				}
			}
		})
	}
}

func TestPartitionDegenerateKIsNoop(t *testing.T) {
	recs := genRecords(t, gen.Random, 100)
	data := append([]record.Record(nil), recs...)
	if swaps := Partition(data, 0, totalLess, 1); swaps != 0 {
		t.Fatalf("k=0 swapped %d times", swaps)
	}
	for i := range data {
		if data[i] != recs[i] {
			t.Fatalf("k=0 moved elements")
		}
	}
}

func TestMultiselectPlacesAllRanks(t *testing.T) {
	const n = 2500
	for _, kind := range gen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			recs := genRecords(t, kind, n)
			ref := sortedCopy(recs)
			rankSets := [][]int{
				{1},
				{n},
				{1, n / 2, n},
				{n / 4, n / 2, 3 * n / 4, n - 1},
				{1, 2, 3, 4, 5},
			}
			for _, ranks := range rankSets {
				data := append([]record.Record(nil), recs...)
				if _, err := Multiselect(data, ranks, totalLess, 2); err != nil {
					t.Fatalf("ranks %v: %v", ranks, err)
				}
				for _, r := range ranks {
					if got, want := data[r-1], ref[r-1]; got != want {
						t.Fatalf("ranks %v: data[%d] = %v, want %v", ranks, r-1, got, want)
					}
				}
			}
		})
	}
}

func TestMultiselectValidatesRanks(t *testing.T) {
	data := genRecords(t, gen.Random, 10)
	if _, err := Multiselect(data, []int{0}, totalLess, 1); err == nil {
		t.Fatalf("rank 0 accepted")
	}
	if _, err := Multiselect(data, []int{11}, totalLess, 1); err == nil {
		t.Fatalf("rank n+1 accepted")
	}
	if _, err := Multiselect(data, []int{3, 3}, totalLess, 1); err == nil {
		t.Fatalf("duplicate ranks accepted")
	}
	if _, err := Multiselect(data, []int{5, 2}, totalLess, 1); err == nil {
		t.Fatalf("unsorted ranks accepted")
	}
}

func TestRankClamps(t *testing.T) {
	cases := []struct {
		q    float64
		n, r int64
	}{
		{0, 10, 1},
		{0.05, 10, 1},
		{0.5, 10, 5},
		{0.51, 10, 6},
		{1, 10, 10},
		{1, 1, 1},
		{0.999, 3, 3},
	}
	for _, c := range cases {
		if got := Rank(c.q, c.n); got != c.r {
			t.Fatalf("Rank(%v, %d) = %d, want %d", c.q, c.n, got, c.r)
		}
	}
}

func TestQuantileRanksDedupAndAlign(t *testing.T) {
	qs := []float64{0.99, 0.5, 0.9, 0.5}
	ranks, at := QuantileRanks(qs, 1000)
	want := []int{500, 900, 990}
	if len(ranks) != len(want) {
		t.Fatalf("ranks = %v, want %v", ranks, want)
	}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", ranks, want)
		}
	}
	for i, q := range qs {
		if got := ranks[at[i]]; got != int(Rank(q, 1000)) {
			t.Fatalf("q=%v resolved to rank %d", q, got)
		}
	}
	// At tiny n several quantiles collapse onto one rank.
	ranks, at = QuantileRanks([]float64{0.5, 0.6}, 2)
	if len(ranks) != 2 || ranks[0] != 1 || ranks[1] != 2 {
		t.Fatalf("tiny-n ranks = %v", ranks)
	}
	_ = at
}

func TestStreamBothDirections(t *testing.T) {
	const n = 4000
	for _, kind := range gen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			recs := genRecords(t, kind, n)
			ref := sortedCopy(recs)
			for _, k := range []int{1, 7, 100, n, n + 50} {
				vals, read, err := Stream[record.Record](stream.NewSliceReader(recs), k, Smallest, totalLess, nil)
				if err != nil {
					t.Fatalf("Smallest k=%d: %v", k, err)
				}
				if read != int64(n) {
					t.Fatalf("Smallest k=%d read %d, want %d", k, read, n)
				}
				wantLen := min(k, n)
				if len(vals) != wantLen {
					t.Fatalf("Smallest k=%d returned %d values", k, len(vals))
				}
				for i := range vals {
					if vals[i] != ref[i] {
						t.Fatalf("Smallest k=%d: vals[%d] = %v, want %v", k, i, vals[i], ref[i])
					}
				}
				vals, _, err = Stream[record.Record](stream.NewSliceReader(recs), k, Largest, totalLess, nil)
				if err != nil {
					t.Fatalf("Largest k=%d: %v", k, err)
				}
				if len(vals) != wantLen {
					t.Fatalf("Largest k=%d returned %d values", k, len(vals))
				}
				for i := range vals {
					if vals[i] != ref[n-wantLen+i] {
						t.Fatalf("Largest k=%d: vals[%d] = %v, want %v", k, i, vals[i], ref[n-wantLen+i])
					}
				}
			}
		})
	}
}

func TestStreamValidatesK(t *testing.T) {
	if _, _, err := Stream[int](stream.NewSliceReader([]int{1}), -1, Smallest, func(a, b int) bool { return a < b }, nil); err == nil {
		t.Fatalf("negative k accepted")
	}
	vals, read, err := Stream[int](stream.NewSliceReader([]int{1, 2}), 0, Largest, func(a, b int) bool { return a < b }, nil)
	if err != nil || vals != nil || read != 0 {
		t.Fatalf("k=0: vals=%v read=%d err=%v", vals, read, err)
	}
}

// TestStreamCancellation: the hook is polled every cancelOps consumed
// elements, so an endless source is abandoned within one interval of it
// firing.
func TestStreamCancellation(t *testing.T) {
	sentinel := errors.New("stop")
	n := 0
	endless := readFunc[int](func() (int, error) { n++; return n, nil })
	fired := 0
	cancel := func() error {
		// Let the first poll pass so selection genuinely starts, then fire.
		if fired++; fired > 1 {
			return sentinel
		}
		return nil
	}
	if _, _, err := Stream(stream.AsBatchReader[int](endless), 10, Smallest, func(a, b int) bool { return a < b }, cancel); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n > 2*cancelOps {
		t.Fatalf("read %d elements after cancellation", n)
	}
}

func TestDirString(t *testing.T) {
	if Smallest.String() != "smallest" || Largest.String() != "largest" {
		t.Fatalf("Dir names wrong: %v %v", Smallest, Largest)
	}
	if Dir(9).String() != "Dir(9)" {
		t.Fatalf("unknown Dir name: %v", Dir(9))
	}
}

func TestPartitionRandomisedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	less := func(a, b int) bool { return a < b }
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(400)
		data := make([]int, n)
		for i := range data {
			data[i] = rng.Intn(50) // heavy duplicates
		}
		ref := append([]int(nil), data...)
		sort.Ints(ref)
		k := 1 + rng.Intn(n)
		Partition(data, k, less, 1+rng.Intn(3))
		if data[0] != ref[k-1] {
			t.Fatalf("trial %d n=%d k=%d: pivot %d, want %d", trial, n, k, data[0], ref[k-1])
		}
		got := append([]int(nil), data[:k]...)
		sort.Ints(got)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: bottom region multiset wrong", trial)
			}
		}
	}
}

// readFunc adapts a closure to the element-at-a-time stream.Reader.
type readFunc[T any] func() (T, error)

func (f readFunc[T]) Read() (T, error) { return f() }
