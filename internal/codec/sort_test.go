package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/record"
)

// stableSorted returns vs sorted stably under less: the oracle every batch
// sort is held to, keyed or not.
func stableSorted[T any](vs []T, less func(a, b T) bool) []T {
	want := slices.Clone(vs)
	slices.SortStableFunc(want, func(x, y T) int {
		switch {
		case less(x, y):
			return -1
		case less(y, x):
			return 1
		}
		return 0
	})
	return want
}

// checkKeySorter sorts every batch of batches with a KeySorter keyed by kc
// and with one under the comparator alone, and requires the comparator's
// stable sort from both, element for element by same, batch after batch
// through the same two sorters.
func checkKeySorter[T any](t *testing.T, name string, kc KeyCodec[T], less func(a, b T) bool, same func(a, b T) bool, batches [][]T) {
	t.Helper()
	sorters := map[string]*KeySorter[T]{"keyed": NewKeySorter(kc, less), "comparator only": NewKeySorter(nil, less)}
	for i, b := range batches {
		want := stableSorted(b, less)
		for path, s := range sorters {
			got := slices.Clone(b)
			s.Sort(got)
			if !slices.EqualFunc(got, want, same) {
				t.Fatalf("%s, %s, batch %d of %d elements: not the comparator's stable sort", name, path, i, len(b))
			}
		}
	}
}

// equal is == as the element check of checkKeySorter.
func equal[T comparable](a, b T) bool { return a == b }

// lengths are batch sizes on both sides of every threshold the kernel uses
// (mergeBlock, insertionMax, pfxChunk, lsdMax), the victim buffer's 164 and
// 655, and loads of 2^14 and 2^16.
var lengths = []int{0, 1, 2, 15, 16, 17, 33, 47, 48, 49, 164, 255, 256, 257, 655, 3000,
	1 << 14, lsdMax, lsdMax + 1, 1 << 16}

// TestKeySorterIsTheComparatorSort holds every path of KeySorter to the
// comparator's stable sort: comparator only; radix over a total key; radix
// over a key that does not determine the record, whose runs of equal keys
// the comparator orders, under the key-only comparator and one that refines
// ties by Aux; radix over the prefix of a key longer than it; and float64s
// holding both zeros. Batches run across every size threshold, with keys
// spread over few or many bytes, differing in exactly one byte position,
// over the full 64 bits, all equal, and past the cutoff in either order.
func TestKeySorterIsTheComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var recs [][]record.Record
	add := func(n int, key func(j int) int64) {
		r := make([]record.Record, n)
		for j := range r {
			r[j] = record.Record{Key: key(j), Aux: uint64(rng.Intn(4))<<32 | uint64(j)}
		}
		recs = append(recs, r)
	}
	for i, n := range lengths {
		spread := int64(1) << (8 * (1 + i%5))
		add(n, func(int) int64 { return rng.Int63n(spread) - spread/2 })
		add(n, func(int) int64 { return rng.Int63n(int64(n/3 + 1)) }) // repeated keys
	}
	for d := 0; d < 8; d++ {
		for _, n := range []int{300, lsdMax + 1000} {
			add(n, func(int) int64 { return 0x0102030405060708 ^ int64(rng.Intn(256))<<(8*d) })
		}
	}
	for _, n := range []int{3000, 1 << 16} {
		add(n, func(int) int64 { return int64(rng.Uint64()) })
	}
	add(5000, func(int) int64 { return 7 })
	// Past the cutoff: one key throughout, ascending, descending.
	for _, step := range []int64{0, 1, -1} {
		add(200, func(j int) int64 { return step * int64(j) })
	}
	var ints [][]int64
	var strs [][]string
	for _, b := range recs {
		k := make([]int64, len(b))
		s := make([]string, len(b))
		for j, r := range b {
			k[j] = r.Key
			s[j] = fmt.Sprintf("key-%020d/%d", r.Key, j%3)
		}
		ints, strs = append(ints, k), append(strs, s)
	}
	refining := func(a, b record.Record) bool {
		return a.Key < b.Key || a.Key == b.Key && a.Aux < b.Aux
	}
	checkKeySorter(t, "record key", KeyRecord16{}, record.Less, equal, recs)
	checkKeySorter(t, "record key, refining comparator", KeyRecord16{}, refining, equal, recs)
	checkKeySorter(t, "total int64 key", KeyInt64{}, func(a, b int64) bool { return a < b }, equal, ints)
	checkKeySorter(t, "string key", KeyString{}, func(a, b string) bool { return a < b }, equal, strs)

	// Both zeros tie under <, so they keep their input order: compared by
	// bits, not by ==, under which they are equal.
	negZero := math.Copysign(0, -1)
	var floats [][]float64
	for _, n := range []int{10, 300, 3000, lsdMax + 1} {
		f := make([]float64, n)
		for j := range f {
			f[j] = []float64{negZero, 0, -1.5, 2, math.Inf(1)}[rng.Intn(5)]
		}
		floats = append(floats, f)
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	checkKeySorter(t, "float64 key, both zeros", KeyFloat64{}, func(a, b float64) bool { return a < b }, sameBits, floats)
}

// TestKeySorterTieRunsCostNLogN sorts three distinct keys over 2^16 Records
// under a comparator that refines ties by Aux, Aux shuffled, and bounds the
// comparator calls by 2·n·log2 n: ordering each run of equal keys must not
// take quadratic time. Under the key-only comparator, runs are in order
// already and cost one call per element.
func TestKeySorterTieRunsCostNLogN(t *testing.T) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(9))
	in := make([]record.Record, n)
	for i := range in {
		in[i] = record.Record{Key: int64(rng.Intn(3)), Aux: rng.Uint64()}
	}
	calls := 0
	refining := func(a, b record.Record) bool {
		calls++
		return a.Key < b.Key || a.Key == b.Key && a.Aux < b.Aux
	}
	keyOnly := func(a, b record.Record) bool {
		calls++
		return a.Key < b.Key
	}
	for _, c := range []struct {
		name  string
		less  func(a, b record.Record) bool
		bound int
	}{
		{"refining", refining, 2 * n * 16},
		{"key only", keyOnly, n},
	} {
		got := slices.Clone(in)
		calls = 0
		NewKeySorter(KeyRecord16{}, c.less).Sort(got)
		if calls > c.bound {
			t.Fatalf("%s: %d comparator calls, want at most %d", c.name, calls, c.bound)
		}
		if want := stableSorted(in, c.less); !slices.Equal(got, want) {
			t.Fatalf("%s: not the comparator's stable sort", c.name)
		}
	}
}

// TestKeySorterAllocatesNothing pins a steady-state batch sort, every path,
// at zero allocations once the sorter's buffers have grown.
func TestKeySorterAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := make([]record.Record, lsdMax+1)
	strs := make([]string, 3000)
	for i := range in {
		in[i] = record.Record{Key: rng.Int63n(1 << 20), Aux: uint64(i)}
	}
	for i := range strs {
		strs[i] = fmt.Sprintf("%08d", rng.Intn(1000))
	}
	buf := make([]record.Record, len(in))
	sbuf := make([]string, len(strs))
	for name, sort := range map[string]func(){
		"keyed, LSD":      sortWith(NewKeySorter(KeyRecord16{}, record.Less), in[:3000], buf),
		"keyed, MSD":      sortWith(NewKeySorter(KeyRecord16{}, record.Less), in, buf),
		"comparator only": sortWith(NewKeySorter(nil, record.Less), in, buf),
		"long key":        sortWith(NewKeySorter(KeyString{}, func(a, b string) bool { return a < b }), strs, sbuf),
	} {
		sort()
		if allocs := testing.AllocsPerRun(5, sort); allocs != 0 {
			t.Errorf("%s: %v allocations per batch sort, want 0", name, allocs)
		}
	}
}

// sortWith returns a function that copies in into buf and sorts it with s.
func sortWith[T any](s *KeySorter[T], in, buf []T) func() {
	return func() {
		buf = buf[:len(in)]
		copy(buf, in)
		s.Sort(buf)
	}
}

// FuzzKeySorter decodes a batch of Records from bytes — 9 bytes each, a
// one-byte key class and a key word — and holds the keyed sort, under the
// key-only and the refining comparator, to the comparator's stable sort.
// The class picks how many low bytes of the word are kept, so batches mix
// repeated keys with keys that differ in one byte or in all eight. An input
// of odd length also sorts its batch repeated past lsdMax, for the MSD pass
// and ties between the copies.
func FuzzKeySorter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x00\x07"))
	f.Add([]byte(strings.Repeat("\x01\xff\xee\xdd\xcc\xbb\xaa\x99\x88\x08\x00\x00\x00\x00\x00\x00\x00\x01", 40)))
	f.Add([]byte(strings.Repeat("\x03\x00\x00\x00\x00\x00\x12\x34\x56", 30) + "\x00"))
	refining := func(a, b record.Record) bool {
		return a.Key < b.Key || a.Key == b.Key && a.Aux < b.Aux
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var batch []record.Record
		for i := 0; i+9 <= len(data); i += 9 {
			w := binary.BigEndian.Uint64(data[i+1:])
			if keep := data[i] % 9; keep < 8 {
				w &= 1<<(8*keep) - 1
			}
			batch = append(batch, record.Record{Key: int64(w), Aux: uint64(len(batch) % 5)})
		}
		batches := [][]record.Record{batch}
		if len(data)%2 == 1 && len(batch) > 0 {
			var long []record.Record
			for len(long) <= lsdMax {
				long = append(long, batch...)
			}
			batches = append(batches, long)
		}
		checkKeySorter(t, "fuzzed records", KeyRecord16{}, record.Less, equal, batches)
		checkKeySorter(t, "fuzzed records, refining comparator", KeyRecord16{}, refining, equal, batches)
	})
}
