package codec

import (
	"math/bits"
	"slices"
)

// KeySorter sorts batches of elements into the order — the very
// permutation — that slices.SortFunc gives them under the comparator, and
// gets there faster with a key codec. Each element is paired with its cached
// normalized-key prefix. When the prefix is the whole key (PrefixIsKey), the
// pairs are ordered by MSD radix over its bytes, with no comparator call:
// where keys are distinct there is only one ascending order, and where equal
// keys are equal elements (TotalKey) tie placement stores the same bytes, so
// only a batch with a repeated key of a codec that is not total is sorted
// again, by comparison. Otherwise the comparison sort runs over the pairs,
// the prefix deciding strictly ordered pairs and the comparator breaking
// prefix ties — pointwise the comparator's own decisions, so the same
// permutation. The run generators sort their batches through it: the quick
// stepper its memory loads, two-way replacement selection its victim buffer.
type KeySorter[T any] struct {
	less  func(a, b T) bool
	pfx   func(T) uint64 // nil: the comparator alone
	radix bool           // the prefix is the whole key
	total bool           // and equal keys are equal elements
	// pairs and scratch are reused across batches.
	pairs, scratch []keyed[T]
}

// NewKeySorter returns a sorter ordering by less and keyed by kc, or by less
// alone when kc is nil. It reuses its buffers: one goroutine uses it.
func NewKeySorter[T any](kc KeyCodec[T], less func(a, b T) bool) *KeySorter[T] {
	s := &KeySorter[T]{less: less}
	if kc != nil {
		s.pfx = PrefixFunc(kc)
		s.radix, s.total = PrefixIsKey(kc), kc.TotalKey()
	}
	return s
}

// Sort sorts vs ascending in place.
func (s *KeySorter[T]) Sort(vs []T) {
	if s.pfx == nil {
		slices.SortFunc(vs, s.compare)
		return
	}
	if cap(s.pairs) < len(vs) {
		s.pairs = make([]keyed[T], len(vs))
		if s.radix {
			s.scratch = make([]keyed[T], len(vs))
		}
	}
	pairs := s.pair(vs)
	if !s.radix {
		s.sortPairs(pairs)
	} else {
		radixMSD(pairs, s.scratch[:len(vs)])
		if !s.total && repeatsKey(pairs) {
			// A repeated key that does not determine its elements: where
			// the ties land matters, so the batch is sorted again as it came.
			s.sortPairs(s.pair(vs))
		}
	}
	for i := range pairs {
		vs[i] = pairs[i].v
	}
}

// sortPairs is the comparison sort over pairs.
func (s *KeySorter[T]) sortPairs(pairs []keyed[T]) {
	slices.SortFunc(pairs, func(a, b keyed[T]) int {
		if a.k != b.k {
			if a.k < b.k {
				return -1
			}
			return 1
		}
		return s.compare(a.v, b.v)
	})
}

// pair fills the pair buffer with vs and their prefixes, in vs's order.
func (s *KeySorter[T]) pair(vs []T) []keyed[T] {
	pairs := s.pairs[:len(vs)]
	for i, v := range vs {
		pairs[i] = keyed[T]{k: s.pfx(v), v: v}
	}
	return pairs
}

// compare is less as a three-way comparison.
func (s *KeySorter[T]) compare(a, b T) int {
	switch {
	case s.less(a, b):
		return -1
	case s.less(b, a):
		return 1
	}
	return 0
}

// keyed pairs an element with its cached normalized-key prefix.
type keyed[T any] struct {
	k uint64
	v T
}

// radixCutoff is the bucket size below which MSD recursion switches to
// insertion sort on the cached prefixes: small buckets are cheaper to
// finish in place than to count and scatter again.
const radixCutoff = 48

// insertionKeyed sorts a small slice ascending by prefix.
func insertionKeyed[T any](a []keyed[T]) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && a[j].k > x.k {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// repeatsKey reports whether the sorted pairs a hold a key twice.
func repeatsKey[T any](a []keyed[T]) bool {
	for i := 1; i < len(a); i++ {
		if a[i].k == a[i-1].k {
			return true
		}
	}
	return false
}

// radixMSD sorts one bucket by the highest byte on which its prefixes
// differ, recursing into the sub-buckets; a bucket of one prefix is sorted.
func radixMSD[T any](a, scratch []keyed[T]) {
	if len(a) <= radixCutoff {
		insertionKeyed(a)
		return
	}
	var diff uint64
	for i := range a {
		diff |= a[i].k ^ a[0].k
	}
	if diff == 0 {
		return
	}
	shift := uint(63-bits.LeadingZeros64(diff)) / 8 * 8
	var count [256]int
	for i := range a {
		count[byte(a[i].k>>shift)]++
	}
	var offs [256]int
	sum := 0
	for b := 0; b < 256; b++ {
		offs[b] = sum
		sum += count[b]
	}
	pos := offs
	for i := range a {
		b := byte(a[i].k >> shift)
		scratch[pos[b]] = a[i]
		pos[b]++
	}
	copy(a, scratch[:len(a)])
	if shift == 0 {
		return
	}
	for b := 0; b < 256; b++ {
		if count[b] > 1 {
			radixMSD(a[offs[b]:offs[b]+count[b]], scratch[:count[b]])
		}
	}
}
