// Package ops implements streaming relational operators over sorted element
// streams: duplicate elimination (Distinct), grouped aggregation (GroupBy)
// and sort-merge join (MergeJoin).
//
// Distinct and GroupBy are stream transformers: they wrap a sorted
// stream.BatchReader and are themselves batch readers, so a whole operator
// pipeline moves elements batch-at-a-time with one dynamic dispatch per
// ~1024 elements. They rely only on equal elements being adjacent, which is
// exactly what the merge phase's output order guarantees.
//
// MergeJoin consumes two streams sorted consistently with a cross-type
// comparator and emits one joined element per matching pair (inner join,
// many-to-many); only the current right-side key group is buffered.
package ops

import (
	"io"

	"repro/internal/stream"
)

// cancelOps is how many element operations pass between cancellation-hook
// polls in the element-loop operators (MergeJoin), matching the 1024-op
// cadence of the public API's context wrappers. The batch operators poll per
// batch, which is at least as often.
const cancelOps = 1024

// Distinct filters a sorted stream down to one element per equivalence
// class, keeping the first element of each run of equal elements. In reports
// how many elements were consumed from the source.
type Distinct[T any] struct {
	src     stream.BatchReader[T]
	eq      func(a, b T) bool
	last    T
	have    bool
	in      int64
	scratch []T
}

// NewDistinct returns a Distinct over the sorted src. eq must agree with
// the order src was sorted by: equal elements must be adjacent.
func NewDistinct[T any](src stream.BatchReader[T], eq func(a, b T) bool) *Distinct[T] {
	return &Distinct[T]{src: src, eq: eq, scratch: make([]T, stream.DefaultBatchLen)}
}

// In returns the number of elements consumed from the source so far.
func (d *Distinct[T]) In() int64 { return d.in }

// ReadBatch fills dst with the next distinct elements per the
// stream.BatchReader contract.
func (d *Distinct[T]) ReadBatch(dst []T) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	filled := 0
	for filled == 0 {
		// Reading at most len(dst) elements bounds survivors to the space
		// available, so a batch never overflows dst.
		scratch := d.scratch[:min(len(d.scratch), len(dst))]
		n, err := d.src.ReadBatch(scratch)
		d.in += int64(n)
		for _, v := range scratch[:n] {
			if d.have && d.eq(d.last, v) {
				continue
			}
			d.last, d.have = v, true
			dst[filled] = v
			filled++
		}
		if err != nil {
			// The batch contract delivers errors with n == 0, so filled is
			// still 0 here and the error propagates cleanly.
			return 0, err
		}
	}
	return filled, nil
}

// GroupBy folds each run of same-group elements of a sorted stream into one
// element: the group's first element seeds the accumulator and reduce folds
// every later member in stream order. Group membership is decided against
// the group's first element (the representative), so reduce is free to
// change the parts of the accumulator the grouping key does not cover.
type GroupBy[T any] struct {
	src     stream.BatchReader[T]
	same    func(a, b T) bool
	reduce  func(acc, v T) T
	rep     T // first element of the open group, compared against
	acc     T // folded value of the open group
	have    bool
	done    bool
	in      int64
	groups  int64
	scratch []T
}

// NewGroupBy returns a GroupBy over the sorted src. same must agree with
// the sort order (same-group elements adjacent); reduce folds one member
// into the accumulator.
func NewGroupBy[T any](src stream.BatchReader[T], same func(a, b T) bool, reduce func(acc, v T) T) *GroupBy[T] {
	return &GroupBy[T]{src: src, same: same, reduce: reduce, scratch: make([]T, stream.DefaultBatchLen)}
}

// In returns the number of elements consumed from the source so far.
func (g *GroupBy[T]) In() int64 { return g.in }

// Groups returns the number of groups emitted so far.
func (g *GroupBy[T]) Groups() int64 { return g.groups }

// ReadBatch fills dst with the next folded groups per the
// stream.BatchReader contract.
func (g *GroupBy[T]) ReadBatch(dst []T) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if g.done {
		return 0, io.EOF
	}
	filled := 0
	for filled == 0 {
		// Each consumed element closes at most one group, so reading at most
		// len(dst) elements bounds closures to the space available.
		scratch := g.scratch[:min(len(g.scratch), len(dst))]
		n, err := g.src.ReadBatch(scratch)
		g.in += int64(n)
		for _, v := range scratch[:n] {
			if !g.have {
				g.rep, g.acc, g.have = v, v, true
				continue
			}
			if g.same(g.rep, v) {
				g.acc = g.reduce(g.acc, v)
				continue
			}
			dst[filled] = g.acc
			filled++
			g.groups++
			g.rep, g.acc = v, v
		}
		if err == io.EOF {
			// Errors arrive with n == 0, so filled is still 0: the final open
			// group (if any) fits, and the EOF is re-delivered on the next
			// call via the done flag.
			g.done = true
			if g.have {
				g.have = false
				dst[0] = g.acc
				g.groups++
				return 1, nil
			}
			return 0, io.EOF
		}
		if err != nil {
			return 0, err
		}
	}
	return filled, nil
}

// JoinStats reports what a merge join consumed and produced.
type JoinStats struct {
	// LeftIn and RightIn count elements consumed from each input.
	LeftIn, RightIn int64
	// Out counts joined elements emitted.
	Out int64
	// MaxGroup is the largest right-side key group buffered in memory, the
	// join's peak per-key state.
	MaxGroup int
}

// countWriter counts the elements actually delivered downstream, so
// JoinStats.Out never includes rows that were buffered but lost to a write
// failure.
type countWriter[T any] struct {
	w stream.BatchWriter[T]
	n int64
}

func (c *countWriter[T]) WriteBatch(src []T) error {
	if err := c.w.WriteBatch(src); err != nil {
		return err
	}
	c.n += int64(len(src))
	return nil
}

// MergeJoin inner-joins two sorted streams: for every pair (l, r) with
// cmp(l, r) == 0 it writes join(l, r) to dst. Both inputs must be sorted
// consistently with cmp — ascending by the join key — and the join is
// many-to-many: each left element pairs with every right element of the
// matching key group, in stream order. Only the current right-side key
// group is buffered, so memory is bounded by the largest set of equal-key
// right elements, not the input size. cancel (nil means never) is polled
// every cancelOps consumed or emitted elements.
func MergeJoin[L, R, O any](left stream.BatchReader[L], right stream.BatchReader[R], cmp func(L, R) int, join func(L, R) O, dst stream.BatchWriter[O], cancel func() error) (JoinStats, error) {
	cw := &countWriter[O]{w: dst}
	out := stream.NewElementWriter[O](cw, 0)
	st, err := mergeJoin(left, right, cmp, join, out, cancel)
	if err == nil {
		err = out.Flush()
	}
	st.Out = cw.n
	return st, err
}

// mergeJoin is the join loop; the caller flushes the batching writer and
// fills in the delivered-row count.
func mergeJoin[L, R, O any](left stream.BatchReader[L], right stream.BatchReader[R], cmp func(L, R) int, join func(L, R) O, out *stream.ElementWriter[O], cancel func() error) (JoinStats, error) {
	var st JoinStats
	lf, rf := stream.NewFetcher(left, 0), stream.NewFetcher(right, 0)
	var ticks int64
	tick := func() error {
		if cancel != nil && ticks%cancelOps == 0 {
			if err := cancel(); err != nil {
				return err
			}
		}
		ticks++
		return nil
	}
	nextL := func() (L, bool, error) {
		v, ok, err := lf.Next()
		if ok {
			st.LeftIn++
		}
		return v, ok, err
	}
	nextR := func() (R, bool, error) {
		v, ok, err := rf.Next()
		if ok {
			st.RightIn++
		}
		return v, ok, err
	}

	l, lok, err := nextL()
	if err != nil {
		return st, err
	}
	r, rok, err := nextR()
	if err != nil {
		return st, err
	}
	var group []R
	for lok && rok {
		if err := tick(); err != nil {
			return st, err
		}
		c := cmp(l, r)
		if c < 0 {
			if l, lok, err = nextL(); err != nil {
				return st, err
			}
			continue
		}
		if c > 0 {
			if r, rok, err = nextR(); err != nil {
				return st, err
			}
			continue
		}
		// Matching keys: buffer the whole right group for this key…
		group = append(group[:0], r)
		for {
			if err := tick(); err != nil {
				return st, err
			}
			if r, rok, err = nextR(); err != nil {
				return st, err
			}
			if !rok || cmp(l, r) != 0 {
				break
			}
			group = append(group, r)
		}
		if len(group) > st.MaxGroup {
			st.MaxGroup = len(group)
		}
		// …then pair it with every left element of the same key.
		rep := group[0]
		for {
			for _, rg := range group {
				if err := tick(); err != nil {
					return st, err
				}
				if err := out.Write(join(l, rg)); err != nil {
					return st, err
				}
			}
			if l, lok, err = nextL(); err != nil {
				return st, err
			}
			if !lok || cmp(l, rep) != 0 {
				break
			}
		}
	}
	return st, nil
}
