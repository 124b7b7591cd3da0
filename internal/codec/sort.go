package codec

import (
	"math/bits"
	"slices"
	"sync"
)

// KeySorter sorts batches of elements stably under the comparator: elements
// it ties keep their input order, so the result is the one permutation a
// stable comparison sort gives, with or without a key codec. With one, each
// element is paired with its cached normalized-key prefix, filled a chunk at
// a time through the codec's bulk face, and the pairs are ordered by radix
// over the bytes in which their prefixes differ — no comparator call, since a
// lower prefix is a lower key (KeyCodec's contract). Each run of equal
// prefixes is then ordered by the comparator: one call per element when the
// run is already in order, a stable merge sort when it is not. Only where
// equal prefixes are equal elements (a total key the prefix holds whole) is
// that skipped: their ties store the same bytes. Without a key codec the
// batch is merge sorted under the comparator. The run generators sort their
// batches through it: the quick stepper its memory loads, two-way
// replacement selection its victim buffer.
type KeySorter[T any] struct {
	less     func(a, b T) bool
	lessPair func(a, b keyed[T]) bool    // less on the pairs' elements
	pfxAll   func(dst []uint64, src []T) // nil: the comparator alone
	exact    bool                        // equal prefixes are equal elements
	// The buffers are reused across batches: pairs and scratch by the keyed
	// sort — borrowed for each batch from from, when set (Scratch.Sorter) —
	// elems by the comparator's, keys and count across chunks and buckets.
	from           *Scratch[T]
	pairs, scratch []keyed[T]
	elems          []T
	keys           [pfxChunk]uint64
	count          byteCounts
}

// NewKeySorter returns a sorter ordering by less and keyed by kc, or by less
// alone when kc is nil. It reuses its buffers: one goroutine uses it.
func NewKeySorter[T any](kc KeyCodec[T], less func(a, b T) bool) *KeySorter[T] {
	s := &KeySorter[T]{less: less}
	s.lessPair = func(a, b keyed[T]) bool { return less(a.v, b.v) }
	if kc != nil {
		s.pfxAll = PrefixAllFunc(kc)
		s.exact = PrefixIsKey(kc) && kc.TotalKey()
	}
	return s
}

// Scratch recycles batch-sort memory from one sort to the next: the pair
// buffers of keyed batch sorts and the batches they sort. A Sorter keeps
// one, so the quick generator's memory is paid once per Sorter. It is safe
// for concurrent use; a nil *Scratch recycles nothing.
type Scratch[T any] struct {
	mu    sync.Mutex
	pairs [][]keyed[T]
	bufs  [][]T
}

// Sorter returns NewKeySorter(kc, less) borrowing its pair buffers from s
// for each batch, so that generators side by side hold them only while
// they sort.
func (s *Scratch[T]) Sorter(kc KeyCodec[T], less func(a, b T) bool) *KeySorter[T] {
	ks := NewKeySorter(kc, less)
	ks.from = s
	return ks
}

// Buffer returns an empty buffer of capacity n or more: a recycled one when
// one is large enough.
func (s *Scratch[T]) Buffer(n int) []T {
	if s != nil {
		if b := take(s, &s.bufs, n); b != nil {
			return b[:0]
		}
	}
	return make([]T, 0, n)
}

// Put recycles a buffer; the caller uses it no more.
func (s *Scratch[T]) Put(buf []T) {
	if s != nil {
		give(s, &s.bufs, buf)
	}
}

// take removes from free, under s's lock, a buffer of capacity n or more
// and returns it, or nil when there is none.
func take[T, E any](s *Scratch[T], free *[][]E, n int) []E {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := slices.IndexFunc(*free, func(b []E) bool { return cap(b) >= n })
	if i < 0 {
		return nil
	}
	b := (*free)[i]
	*free = slices.Delete(*free, i, i+1)
	return b
}

// give returns buffers to free under s's lock.
func give[T, E any](s *Scratch[T], free *[][]E, bufs ...[]E) {
	s.mu.Lock()
	*free = append(*free, bufs...)
	s.mu.Unlock()
}

// Sort sorts vs ascending in place, stably.
func (s *KeySorter[T]) Sort(vs []T) {
	if s.pfxAll == nil {
		if cap(s.elems) < len(vs) {
			s.elems = make([]T, len(vs))
		}
		mergeSort(vs, s.elems[:len(vs)], s.less)
		return
	}
	if s.from != nil {
		s.pairs, s.scratch = take(s.from, &s.from.pairs, len(vs)), take(s.from, &s.from.pairs, len(vs))
		defer func() {
			give(s.from, &s.from.pairs, s.pairs, s.scratch)
			s.pairs, s.scratch = nil, nil
		}()
	}
	if cap(s.pairs) < len(vs) {
		s.pairs = make([]keyed[T], len(vs))
	}
	if cap(s.scratch) < len(vs) {
		s.scratch = make([]keyed[T], len(vs))
	}
	pairs, diff := s.pair(vs)
	scratch := s.scratch[:len(vs)]
	if len(vs) <= lsdMax || diff == 0 {
		s.sortInto(vs, pairs, scratch, diff)
		return
	}
	// One MSD pass on the top differing byte, into scratch. Each bucket is
	// then sorted with the head of pairs as its scratch, which stays in
	// cache from bucket to bucket, and written straight into vs.
	d := (63 - bits.LeadingZeros64(diff)) / 8
	top := &s.count[d]
	countByte(top, pairs, 8*uint(d))
	sizes := *top
	offsets(top)
	scatter(pairs, scratch, top, 8*uint(d))
	hi := 0
	for _, n := range sizes {
		lo := hi
		hi += int(n)
		bucket := scratch[lo:hi]
		s.sortInto(vs[lo:hi], bucket, pairs[:n], prefixDiff(bucket))
	}
}

// sortInto sorts the pairs a by prefix, stably, using b (as long as a) as
// scratch, orders each run of equal prefixes by the comparator unless equal
// prefixes are equal elements, and writes the elements into vs in order.
// diff has a bit set wherever two of a's prefixes differ.
func (s *KeySorter[T]) sortInto(vs []T, a, b []keyed[T], diff uint64) {
	if len(a) <= insertionMax {
		insertionKeyed(a)
	} else {
		a, b = lsd(a, b, &s.count, diff)
	}
	if !s.exact {
		for i := 1; i < len(a); i++ {
			if a[i].k != a[i-1].k {
				continue
			}
			j := i + 1
			for j < len(a) && a[j].k == a[i].k {
				j++
			}
			s.orderTies(a[i-1:j], b[i-1:j])
			i = j
		}
	}
	for i := range a {
		vs[i] = a[i].v
	}
}

// orderTies orders a run of equal prefixes by the comparator, stably, using
// buf (as long as run) as scratch. A run already in order costs one
// comparison per element.
func (s *KeySorter[T]) orderTies(run, buf []keyed[T]) {
	for i := 1; i < len(run); i++ {
		if s.less(run[i].v, run[i-1].v) {
			mergeSort(run, buf, s.lessPair)
			return
		}
	}
}

// pair fills the pair buffer with vs and their prefixes, in vs's order, one
// bulk prefix call per chunk. diff has a bit set wherever two prefixes
// differ.
func (s *KeySorter[T]) pair(vs []T) (pairs []keyed[T], diff uint64) {
	pairs = s.pairs[:len(vs)]
	for lo := 0; lo < len(vs); lo += pfxChunk {
		chunk := vs[lo:min(lo+pfxChunk, len(vs))]
		keys := s.keys[:len(chunk)]
		s.pfxAll(keys, chunk)
		k0 := pairs[0].k
		if lo == 0 {
			k0 = keys[0]
		}
		for i, k := range keys {
			diff |= k ^ k0
			pairs[lo+i] = keyed[T]{k: k, v: chunk[i]}
		}
	}
	return pairs, diff
}

// keyed pairs an element with its cached normalized-key prefix.
type keyed[T any] struct {
	k uint64
	v T
}

const (
	// pfxChunk is how many prefixes one bulk call fills before they are
	// paired with their elements: small enough to stay in L1.
	pfxChunk = 256
	// insertionMax is the batch or bucket size at or below which insertion
	// sort on the cached prefixes beats counting and scattering.
	insertionMax = 48
	// lsdMax is the largest batch the LSD kernel sorts whole. Past it the
	// pairs and their scratch outgrow L2, and the scatters miss cache.
	lsdMax = 1 << 15
	// mergeBlock is the block the merge sort insertion sorts before it
	// merges.
	mergeBlock = 16
)

// byteCounts holds, for each of a prefix's 8 bytes (least significant
// first), how many prefixes of a batch hold each byte value.
type byteCounts [8][256]uint32

// prefixDiff has a bit set wherever two of a's prefixes differ.
func prefixDiff[T any](a []keyed[T]) uint64 {
	var diff uint64
	for i := range a {
		diff |= a[i].k ^ a[0].k
	}
	return diff
}

// lsd sorts a by prefix, stably: one counting scatter per byte set in mask,
// the bytes in which a's prefixes differ, least significant first,
// alternating between a and b, which is as long. It counts each byte in a
// pass of its own up front, which measured faster than counting the next
// byte inside each scatter. It returns the one that holds the result, then
// the other.
func lsd[T any](a, b []keyed[T], c *byteCounts, mask uint64) (sorted, other []keyed[T]) {
	for d := range c {
		if byte(mask>>(8*d)) != 0 {
			countByte(&c[d], a, 8*uint(d))
			offsets(&c[d])
		}
	}
	for d := range c {
		if byte(mask>>(8*d)) != 0 {
			scatter(a, b, &c[d], 8*uint(d))
			a, b = b, a
		}
	}
	return a, b
}

// countByte sets row to the counts of byte shift/8 of a's prefixes.
func countByte[T any](row *[256]uint32, a []keyed[T], shift uint) {
	*row = [256]uint32{}
	for i := range a {
		row[byte(a[i].k>>shift)]++
	}
}

// offsets turns a row of byte counts into each byte value's first index.
func offsets(row *[256]uint32) {
	var sum uint32
	for i, n := range row {
		row[i] = sum
		sum += n
	}
}

// scatter moves src into dst by byte shift/8 of the prefixes, pos holding
// each byte value's next index in dst.
//
//go:noinline
func scatter[T any](src, dst []keyed[T], pos *[256]uint32, shift uint) {
	for _, x := range src {
		p := &pos[byte(x.k>>shift)]
		dst[*p] = x
		*p++
	}
}

// insertionKeyed sorts a small slice ascending by prefix, stably.
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

// mergeSort sorts a stably by less, using buf (as long as a) as scratch:
// blocks of mergeBlock elements are insertion sorted in place, then merged
// pairwise, alternating between a and buf, and the result is copied back
// when it ends in buf.
func mergeSort[E any](a, buf []E, less func(x, y E) bool) {
	n := len(a)
	for lo := 0; lo < n; lo += mergeBlock {
		insertionSort(a[lo:min(lo+mergeBlock, n)], less)
	}
	src, dst := a, buf
	for w := mergeBlock; w < n; w *= 2 {
		for lo := 0; lo < n; lo += 2 * w {
			mid, hi := min(lo+w, n), min(lo+2*w, n)
			merge(src[lo:mid], src[mid:hi], dst[lo:hi], less)
		}
		src, dst = dst, src
	}
	if n > mergeBlock && &src[0] != &a[0] {
		copy(a, src)
	}
}

// merge merges the sorted x and y into out, x's element first on a tie.
func merge[E any](x, y, out []E, less func(x, y E) bool) {
	if len(y) == 0 || !less(y[0], x[len(x)-1]) {
		copy(out[copy(out, x):], y)
		return
	}
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if less(y[j], x[i]) {
			out[k] = y[j]
			j++
		} else {
			out[k] = x[i]
			i++
		}
		k++
	}
	k += copy(out[k:], x[i:])
	copy(out[k:], y[j:])
}

// insertionSort sorts a small slice by less, stably.
func insertionSort[E any](a []E, less func(x, y E) bool) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i
		for ; j > 0 && less(x, a[j-1]); j-- {
			a[j] = a[j-1]
		}
		a[j] = x
	}
}
