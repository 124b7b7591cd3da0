package rs

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/codec"
	"repro/internal/runio"
	"repro/internal/stream"
)

// QuickStepper is the Load-Sort-Store baseline (§2.1.1) one run at a time,
// as memory-sized quicksort batches: fill the memory budget, sort it with
// the standard library's pattern-defeating quicksort, store it as one run
// (the thesis sorts with "any internal sort"). Run lengths are exactly the memory budget — half of
// what replacement selection achieves on random input — but no heap is
// touched: each element costs an amortised O(log M) comparison inside a
// cache-friendly array sort instead of a pointer-free but branch-heavy
// heap walk, which makes it the cheapest generator per element. The
// adaptive policy drops to it when run lengths have degenerated to the
// memory size anyway, where the heap buys nothing.
type QuickStepper[T any] struct {
	em     *runio.Emitter[T]
	br     stream.BatchReader[T]
	buf    []T
	memory int
	eof    bool
	// Keyed path state: pfx computes the cached normalized-key prefix, and
	// the two pair buffers (sorted + radix scratch) are reused across runs.
	pfx     func(T) uint64
	pairs   []keyed[T]
	scratch []keyed[T]
	radix   bool // key is total and ≤ 8 bytes: pure radix, zero compares
	// radixIfUnique marks complete ≤8-byte keys that do NOT determine the
	// element (e.g. a record's key field with a payload): radix sort is
	// attempted first and kept only when the batch has no duplicate keys —
	// a batch of distinct keys has exactly one ascending permutation, so
	// any correct sort (radix included) matches the comparator path's.
	// Duplicates force a rebuild and the comparison sort, whose tie
	// placement is what the comparator path produces.
	radixIfUnique bool
}

// NewQuickStepper returns a QuickStepper over src with a load buffer of
// `memory` elements, writing through em and ordering by em.Less.
func NewQuickStepper[T any](src stream.BatchReader[T], em *runio.Emitter[T], memory int) (*QuickStepper[T], error) {
	if memory <= 0 {
		return nil, fmt.Errorf("rs: memory must be positive, got %d", memory)
	}
	s := &QuickStepper[T]{em: em, br: src, memory: memory}
	if kc := em.KeyCodec; kc != nil {
		s.pfx = em.PrefixFunc()
		if codec.PrefixIsKey(kc) {
			s.radix = kc.TotalKey()
			s.radixIfUnique = !kc.TotalKey()
		}
	}
	return s, nil
}

// NextRun loads, sorts and stores one memory-sized run; ok is false at end
// of input.
func (s *QuickStepper[T]) NextRun() (runio.Run, bool, error) {
	if s.buf == nil {
		s.buf = make([]T, s.memory)
	}
	fill := 0
	for fill < s.memory && !s.eof {
		n, err := s.br.ReadBatch(s.buf[fill:s.memory])
		if err == io.EOF {
			s.eof = true
			break
		}
		if err != nil {
			return runio.Run{}, false, err
		}
		fill += n
	}
	if fill == 0 {
		return runio.Run{}, false, nil
	}
	// The run's file is asked for before the batch is sorted: behind a
	// write-behind its creation then overlaps the sort, which costs about
	// as much.
	w, err := s.em.Stream("quick", false)
	if err != nil {
		return runio.Run{}, false, err
	}
	buf := s.buf[:fill]
	less := s.em.Less
	if s.pfx != nil {
		// Keyed batch sort: pair every element with its normalized-key
		// prefix. A total ≤8-byte key sorts by pure MSD radix (no
		// comparator at all; ties are byte-identical elements). Otherwise
		// pdqsort runs over the pairs with the prefix deciding strictly
		// ordered pairs and the comparator breaking prefix ties — pointwise
		// the same decisions as the comparator-only sort, hence the same
		// permutation and byte-identical run contents.
		if s.pairs == nil {
			s.pairs = make([]keyed[T], s.memory)
			if s.radix || s.radixIfUnique {
				s.scratch = make([]keyed[T], s.memory)
			}
		}
		pairs := s.pairs[:fill]
		for i, v := range buf {
			pairs[i] = keyed[T]{k: s.pfx(v), v: v}
		}
		switch {
		case s.radix:
			radixSortKeyed(pairs, s.scratch[:fill])
		case s.radixIfUnique:
			radixSortKeyed(pairs, s.scratch[:fill])
			if dupKeys(pairs) {
				// Equal keys exist, so tie placement matters: restore the
				// original order from buf and let the comparison sort place
				// ties exactly as the comparator path would.
				for i, v := range buf {
					pairs[i] = keyed[T]{k: s.pfx(v), v: v}
				}
				sortPairs(pairs, less)
			}
		default:
			sortPairs(pairs, less)
		}
		for i := range pairs {
			buf[i] = pairs[i].v
		}
	} else {
		slices.SortFunc(buf, func(a, b T) int {
			switch {
			case less(a, b):
				return -1
			case less(b, a):
				return 1
			default:
				return 0
			}
		})
	}
	if err := stream.WriteAll[T](w, buf); err != nil {
		return runio.Run{}, false, err
	}
	if err := w.Close(); err != nil {
		return runio.Run{}, false, err
	}
	return runio.SingleRun(w.Segment()), true, nil
}

// sortPairs orders keyed pairs with the standard comparison sort: the
// cached prefix decides strictly ordered pairs, the comparator breaks
// prefix ties — pointwise the same decisions as sorting the elements with
// the comparator alone, hence the same permutation and byte-identical run
// contents.
func sortPairs[T any](pairs []keyed[T], less func(a, b T) bool) {
	slices.SortFunc(pairs, func(a, b keyed[T]) int {
		switch {
		case a.k != b.k:
			if a.k < b.k {
				return -1
			}
			return 1
		case less(a.v, b.v):
			return -1
		case less(b.v, a.v):
			return 1
		default:
			return 0
		}
	})
}

// dupKeys reports whether a sorted pair slice contains a duplicate key.
func dupKeys[T any](pairs []keyed[T]) bool {
	for i := 1; i < len(pairs); i++ {
		if pairs[i].k == pairs[i-1].k {
			return true
		}
	}
	return false
}

// Carry returns nil: a QuickStepper holds nothing between runs — every run
// boundary is already a clean cut.
func (s *QuickStepper[T]) Carry() []T { return nil }

// Checkpoint lists nothing, for the same reason: a fresh QuickStepper over
// the rest of the input is the restored one.
func (s *QuickStepper[T]) Checkpoint(func(T)) []uint64 { return nil }
