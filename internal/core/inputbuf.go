package core

import (
	"slices"
	"sort"

	"repro/internal/stream"
)

// inputBuffer is the read-ahead FIFO of §4.2. It keeps up to cap elements
// between the source and the algorithm, maintaining the running mean of the
// key projections (when a projection exists) and, when the Median heuristic
// is active, its ring slots in element order, so insertion heuristics can
// sample the upcoming distribution. Each buffered element is held once, in
// the ring; the order is of slot indices.
//
// All input is pulled through a batched fetch buffer (stream.Fetcher), so
// the source pays one dynamic-dispatch round trip per batch rather than per
// element regardless of the FIFO capacity.
//
// With capacity 0 the buffer degrades to a direct pass-through and the
// statistics report "unknown".
type inputBuffer[T any] struct {
	src  *stream.Fetcher[T]
	ring []T
	head int
	n    int
	key  func(T) float64 // optional numeric projection; nil disables mean
	sum  float64
	// order lists the occupied ring slots ascending under less, equal
	// elements in arrival order; nil when the median is not tracked. It is
	// a window of span, twice the capacity long, so an insert or delete
	// shifts the shorter side of its index: the head of a trending input
	// leaves at one end of the order and the newcomer joins near the other.
	order []int32
	span  []int32
	less  func(a, b T) bool
	eof   bool
}

// newInputBuffer returns an empty FIFO of the given capacity over src,
// read through a batched fetch buffer sized against the memory budget; the
// caller pre-fills it with fill. key, when non-nil, enables the
// running mean. trackMedian keeps the slots in order under less (needed by
// the Median heuristic and by the comparator-only Mean fallback).
func newInputBuffer[T any](src stream.BatchReader[T], capacity, memory int, key func(T) float64, trackMedian bool, less func(a, b T) bool) *inputBuffer[T] {
	b := &inputBuffer[T]{src: stream.NewFetcher(src, stream.FetchLen(memory)), key: key, less: less}
	if capacity > 0 {
		b.ring = make([]T, capacity)
		if trackMedian {
			b.span = make([]int32, 2*capacity)
			b.order = b.span[capacity:capacity]
		}
	}
	return b
}

// fill tops the FIFO up from the source.
func (b *inputBuffer[T]) fill() error {
	for !b.eof && b.n < len(b.ring) {
		rec, ok, err := b.src.Next()
		if err != nil {
			return err
		}
		if !ok {
			b.eof = true
			return nil
		}
		pos := (b.head + b.n) % len(b.ring)
		b.ring[pos] = rec
		b.n++
		if b.key != nil {
			b.sum += b.key(rec)
		}
		if b.order != nil {
			b.insert(sort.Search(len(b.order), func(i int) bool { return b.less(rec, b.ring[b.order[i]]) }), int32(pos))
		}
	}
	return nil
}

// next pops the oldest element. ok is false at end of input.
func (b *inputBuffer[T]) next() (T, bool, error) {
	var zero T
	if len(b.ring) == 0 {
		// Pass-through mode.
		rec, ok, err := b.src.Next()
		if err != nil {
			return zero, false, err
		}
		if !ok {
			return zero, false, nil
		}
		return rec, true, nil
	}
	if b.n == 0 {
		return zero, false, nil
	}
	rec := b.pop()
	if err := b.fill(); err != nil {
		return zero, false, err
	}
	return rec, true, nil
}

// pop removes the oldest element of a non-empty FIFO.
func (b *inputBuffer[T]) pop() T {
	rec := b.ring[b.head]
	if b.order != nil {
		// The head is the oldest of its equivalence range, so the scan
		// from the range's start ends at once. A comparator that is not a
		// strict weak order (floats with NaN) can misplace the range; the
		// head is then looked for among every slot.
		i := sort.Search(len(b.order), func(i int) bool { return !b.less(b.ring[b.order[i]], rec) })
		if j := slices.Index(b.order[i:], int32(b.head)); j >= 0 {
			i += j
		} else {
			i = slices.Index(b.order, int32(b.head))
		}
		b.remove(i)
	}
	if b.head++; b.head == len(b.ring) {
		b.head = 0
	}
	b.n--
	if b.key != nil {
		b.sum -= b.key(rec)
	}
	return rec
}

// insert puts slot at index k of order.
func (b *inputBuffer[T]) insert(k int, slot int32) {
	n := len(b.order)
	lo := len(b.span) - cap(b.order) // order is span[lo : lo+n]
	if lo == 0 || lo+n == len(b.span) {
		// Recentre, so both sides have room: at most once per
		// capacity/2 updates.
		lo = (len(b.span) - n) / 2
		copy(b.span[lo:], b.order)
		b.order = b.span[lo : lo+n]
	}
	if k < n/2 {
		b.order = b.span[lo-1 : lo+n]
		copy(b.order, b.order[1:k+1])
	} else {
		b.order = b.order[:n+1]
		copy(b.order[k+1:], b.order[k:n])
	}
	b.order[k] = slot
}

// remove deletes index k of order.
func (b *inputBuffer[T]) remove(k int) {
	n := len(b.order)
	if k < n/2 {
		copy(b.order[1:k+1], b.order[:k])
		b.order = b.order[1:]
	} else {
		copy(b.order[k:], b.order[k+1:])
		b.order = b.order[:n-1]
	}
}

// mean returns the mean key projection of the buffered elements; ok is
// false when the buffer is empty or disabled, or no projection exists.
func (b *inputBuffer[T]) mean() (float64, bool) {
	if b.key == nil || b.n == 0 {
		return 0, false
	}
	return b.sum / float64(b.n), true
}

// median returns the lower median element of the buffer; ok is false when
// the buffer is empty or the median is not tracked.
func (b *inputBuffer[T]) median() (T, bool) {
	if len(b.order) == 0 {
		var zero T
		return zero, false
	}
	return b.ring[b.order[(len(b.order)-1)/2]], true
}
