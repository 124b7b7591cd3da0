// Package sel implements order-statistic selection: finding the k-th
// smallest element, the k smallest or largest elements, or the values at a
// set of quantile ranks, without paying for a full sort.
//
// The package offers three families of algorithms:
//
//   - Partition is Sepesi's dualheap selection: the array is split at the
//     pivot index k into a max-heap over the bottom part and a min-heap over
//     the top part, and the two roots are exchanged until no element below
//     the pivot exceeds an element above it. Heap construction is the bulk
//     of the work and parallelises over independent subtrees
//     (heap.Build's Parallelism knob); the exchange loop touches only the
//     two root-to-leaf paths per swap.
//
//   - Multiselect recurses Partition over a sorted set of ranks, splitting
//     the rank set at its middle element so each array region is
//     partitioned at most O(log m) times for m ranks — one pass returns
//     p50/p90/p99 together without sorting.
//
//   - Stream is bounded-heap selection over a stream of unknown length: a
//     k-element threshold heap (max-heap for the k smallest, min-heap for
//     the k largest) discards non-improving elements on sight, in O(k)
//     memory. It is the direction-parameterized core behind the public
//     TopK and BottomK operators.
//
// SoftHeap adds the approximate track: a Kaplan–Tarjan–Zwick soft heap
// whose corruption budget ε trades rank exactness for fewer comparisons,
// with the guarantee that selecting via k extractions returns an element
// of rank within [k, k+εn]. See DESIGN.md §"Selection subsystem".
package sel

import (
	"fmt"

	"repro/internal/heap"
	"repro/internal/stream"
)

// Dir selects which end of the order a selection keeps.
type Dir int

const (
	// Smallest selects the k smallest elements (a top-k by the comparator's
	// ascending order).
	Smallest Dir = iota
	// Largest selects the k largest elements (a bottom-k: the tail of the
	// ascending order).
	Largest
)

// String returns the direction's name.
func (d Dir) String() string {
	switch d {
	case Smallest:
		return "smallest"
	case Largest:
		return "largest"
	default:
		return fmt.Sprintf("Dir(%d)", int(d))
	}
}

// cancelOps is how many consumed elements pass between cancellation-hook
// polls in Stream, matching the 1024-op cadence used across the operator
// layer.
const cancelOps = 1024

// Stream consumes src — in any order — and returns its k extreme elements
// under less, ascending: the k smallest when dir is Smallest, the k largest
// when dir is Largest. Selection runs through a bounded threshold heap of k
// elements (a max-heap of the current k smallest, or a min-heap of the
// current k largest): once full, each new element is compared against the
// heap root and discarded outright unless it improves the kept set. Memory
// is O(k) and nothing spills. cancel (nil means never) is polled every
// cancelOps consumed elements; read reports how many elements were consumed
// even when an error cut the stream short.
func Stream[T any](src stream.BatchReader[T], k int, dir Dir, less func(a, b T) bool, cancel func() error) (vals []T, read int64, err error) {
	if k < 0 {
		return nil, 0, fmt.Errorf("sel: selection requires k ≥ 0, got %d", k)
	}
	if k == 0 {
		return nil, 0, nil
	}
	// Smallest keeps a max-heap (root = k-th smallest, the threshold to
	// beat); Largest keeps a min-heap (root = k-th largest).
	desc := dir == Smallest
	h := heap.New(k, desc, less)
	f := stream.NewFetcher(src, 0)
	var n int64
	for {
		if cancel != nil && n%cancelOps == 0 {
			if err := cancel(); err != nil {
				return nil, n, err
			}
		}
		v, ok, err := f.Next()
		if err != nil {
			return nil, n, err
		}
		if !ok {
			break
		}
		n++
		if h.Len() < k {
			h.Push(heap.Item[T]{Rec: v})
		} else if improves(v, h.Peek().Rec, less, dir) {
			h.Pop()
			h.Push(heap.Item[T]{Rec: v})
		}
	}
	out := make([]T, h.Len())
	if dir == Smallest {
		for i := len(out) - 1; i >= 0; i-- {
			out[i] = h.Pop().Rec // max-heap pops descending; fill back to front
		}
	} else {
		for i := range out {
			out[i] = h.Pop().Rec // min-heap pops ascending; fill front to back
		}
	}
	return out, n, nil
}

// improves reports whether v displaces the current threshold root: strictly
// smaller than the k-th smallest for Smallest, strictly larger than the
// k-th largest for Largest. Ties never displace, so the first k-th-ranked
// element seen wins — the same tie policy in both directions.
func improves[T any](v, root T, less func(a, b T) bool, dir Dir) bool {
	if dir == Smallest {
		return less(v, root)
	}
	return less(root, v)
}
