package codec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/record"
)

// checkKeySorter sorts every batch of batches both ways — slices.SortFunc
// under less, and a KeySorter keyed by kc — and requires the same
// permutation, batch after batch through one sorter.
func checkKeySorter[T comparable](t *testing.T, name string, kc KeyCodec[T], less func(a, b T) bool, batches [][]T) {
	t.Helper()
	s := NewKeySorter(kc, less)
	for i, b := range batches {
		want := slices.Clone(b)
		slices.SortFunc(want, func(x, y T) int {
			switch {
			case less(x, y):
				return -1
			case less(y, x):
				return 1
			}
			return 0
		})
		got := slices.Clone(b)
		s.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s, batch %d of %d elements: the keyed sort left a different permutation", name, i, len(b))
		}
	}
}

// TestKeySorterIsTheComparatorSort holds every path of KeySorter to the
// comparator's own sort: comparator only; radix over a total key; radix over
// a key that does not determine the record, with distinct keys and with
// repeated ones (sorted again by comparison), under the key-only comparator
// and one that refines ties by Aux; and the keyed comparison sort of a key
// longer than the prefix. Batches run from empty to past the radix cutoff,
// with keys that share their high bytes, so single-bucket levels are met,
// and past the cutoff with a single key and already in either order.
func TestKeySorterIsTheComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var recs [][]record.Record
	var ints [][]int64
	var strs [][]string
	for i, n := range []int{0, 1, 2, 47, 48, 49, 164, 700, 3000} {
		spread := int64(1) << (8 * (1 + i%5))
		if i%2 == 1 {
			spread = int64(n/3 + 1) // repeated keys
		}
		var r []record.Record
		var k []int64
		var s []string
		for j := 0; j < n; j++ {
			key := rng.Int63n(spread) - spread/2
			r = append(r, record.Record{Key: key, Aux: uint64(j)})
			k = append(k, key)
			s = append(s, fmt.Sprintf("key-%012d/%d", key, j%3))
		}
		recs, ints, strs = append(recs, r), append(ints, k), append(strs, s)
	}
	// Past the cutoff: one key throughout, ascending, descending.
	for _, step := range []int64{0, 1, -1} {
		var r []record.Record
		var k []int64
		var s []string
		for j := int64(0); j < 200; j++ {
			r = append(r, record.Record{Key: step * j, Aux: uint64(j)})
			k = append(k, step*j)
			s = append(s, fmt.Sprintf("key-%012d/%d", step*j+1000, j%3))
		}
		recs, ints, strs = append(recs, r), append(ints, k), append(strs, s)
	}
	refining := func(a, b record.Record) bool {
		return a.Key < b.Key || a.Key == b.Key && a.Aux < b.Aux
	}
	checkKeySorter(t, "comparator only", nil, record.Less, recs)
	checkKeySorter(t, "record key", KeyRecord16{}, record.Less, recs)
	checkKeySorter(t, "record key, refining comparator", KeyRecord16{}, refining, recs)
	checkKeySorter(t, "total int64 key", KeyInt64{}, func(a, b int64) bool { return a < b }, ints)
	checkKeySorter(t, "string key", KeyString{}, func(a, b string) bool { return a < b }, strs)
}
