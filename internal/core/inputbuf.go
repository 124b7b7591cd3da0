package core

import (
	"repro/internal/stream"
)

// inputBuffer is the read-ahead FIFO of §4.2. It keeps up to cap elements
// between the source and the algorithm, maintaining the running mean of the
// key projections (when a projection exists) and, when the Median heuristic
// is active, a sliding median of its contents so insertion heuristics can
// sample the upcoming distribution.
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
	med  *windowMedian[T]
	seq  uint64
	eof  bool
}

// newInputBuffer returns an empty FIFO of the given capacity over src,
// read through a batched fetch buffer sized against the memory budget; the
// caller pre-fills it with fill. key, when non-nil, enables the
// running mean. trackMedian enables the sliding-median structure (needed by
// the Median heuristic and by the comparator-only Mean fallback), ordered
// by less.
func newInputBuffer[T any](src stream.BatchReader[T], capacity, memory int, key func(T) float64, trackMedian bool, less func(a, b T) bool) *inputBuffer[T] {
	b := &inputBuffer[T]{src: stream.NewFetcher(src, stream.FetchLen(memory)), key: key}
	if capacity > 0 {
		b.ring = make([]T, capacity)
		if trackMedian {
			b.med = newWindowMedian[T](less)
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
		if b.med != nil {
			b.med.Add(rec, b.seq+uint64(b.n-1))
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
	rec := b.ring[b.head]
	b.head = (b.head + 1) % len(b.ring)
	b.n--
	if b.key != nil {
		b.sum -= b.key(rec)
	}
	if b.med != nil {
		b.med.Remove(b.seq)
	}
	b.seq++
	if err := b.fill(); err != nil {
		return zero, false, err
	}
	return rec, true, nil
}

// drain removes and returns every element buffered in the FIFO and in its
// fetch read-ahead, without reading anything more from the source. The
// buffer is left empty but remains usable; policy switches use drain to
// hand buffered input to a successor generator.
func (b *inputBuffer[T]) drain() []T {
	out := make([]T, 0, b.n)
	for b.n > 0 {
		rec := b.ring[b.head]
		b.head = (b.head + 1) % len(b.ring)
		b.n--
		if b.key != nil {
			b.sum -= b.key(rec)
		}
		if b.med != nil {
			b.med.Remove(b.seq)
		}
		b.seq++
		out = append(out, rec)
	}
	return append(out, b.src.Drain()...)
}

// mean returns the mean key projection of the buffered elements; ok is
// false when the buffer is empty or disabled, or no projection exists.
func (b *inputBuffer[T]) mean() (float64, bool) {
	if b.key == nil || b.n == 0 {
		return 0, false
	}
	return b.sum / float64(b.n), true
}

// median returns the median element of the buffer; ok is false when
// unavailable.
func (b *inputBuffer[T]) median() (T, bool) {
	if b.med == nil {
		var zero T
		return zero, false
	}
	return b.med.Median()
}
