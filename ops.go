package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/merge"
	"repro/internal/ops"
	sel "repro/internal/select"
	"repro/internal/stream"
)

// This file is the public surface of the operator layer: the queries sorted
// runs make cheap, offered directly on Sorter[T] instead of forcing callers
// to materialise a sorted file and post-process it. Distinct, GroupBy and
// MergeJoin stream the merged order through internal/ops transformers;
// TopK bypasses the sort machinery entirely when k fits in memory. See
// DESIGN.md §"Operator layer".

// OpStats describes one operator execution.
type OpStats struct {
	// Sort carries the underlying external sort's statistics — run counts,
	// merge passes, phase timings. It is zero when the operator bypassed
	// the sort entirely (TopK's bounded-selection path).
	Sort Stats
	// In counts elements consumed from the source; Out counts elements
	// emitted to the sink.
	In, Out int64
	// Groups counts the groups GroupBy folded (zero for other operators).
	Groups int64
	// Sorted reports whether an external sort ran. TopK with k within the
	// memory budget selects through a bounded heap instead: Sorted is false,
	// Sort.Runs is 0, and nothing was spilled.
	Sorted bool
	// Elapsed is the end-to-end wall time of the operator call.
	Elapsed time.Duration
	// Phases breaks Elapsed into named per-phase wall durations in
	// execution order: "generate" (run generation and merge setup) when an
	// external sort ran, then the operator's own drain phase ("distinct",
	// "groupby", "select", ...). Their sum never exceeds Elapsed.
	Phases []PhaseStat
}

// eq derives the equivalence relation of the sorter's comparator: two
// elements are equal when neither orders before the other.
func (s *Sorter[T]) eq() func(a, b T) bool {
	less := s.ops.Less
	return func(a, b T) bool { return !less(a, b) && !less(b, a) }
}

// streamed is the streaming caller of generate, the body every operator and
// spilled selection shares: run generation (the "generate" phase), then the
// merged order opened as a pull stream and handed — with n, the number of
// elements in it — to drain under the named phase, then the stream closed
// whatever drain did. Closing is what deletes the remaining run files and a
// durable sorter's manifest, so an operator that abandons the stream early
// leaves as little behind as one that drains it; a sort that fails before
// its stream opens leaves a durable sorter's resumable state, or nothing. It
// returns the two-phase statistics of the underlying sort.
func (s *Sorter[T]) streamed(o *op, src stream.BatchReader[T], prefix, phase string, drain func(st *merge.Stream[T], n int64) error) (Stats, error) {
	o.phase("generate")
	rset, err := s.generate(o, src, prefix, false)
	if err != nil {
		return Stats{}, err
	}
	st, err := rset.OpenMerged()
	if err != nil {
		return Stats{}, err
	}
	o.phase(phase)
	err = rset.CloseMerged(st, drain(st, rset.Stats().Records))
	return rset.Stats(), err
}

// piped is the body of the operators that transform the whole merged order:
// it streams the sorted input through the given transformer into dst.
func (s *Sorter[T]) piped(o *op, src Source[T], name string, dst Sink[T], through func(stream.BatchReader[T]) stream.BatchReader[T]) (stats OpStats, err error) {
	stats.Sort, err = s.streamed(o, source(o, src), name, name, func(st *merge.Stream[T], n int64) (err error) {
		stats.In, stats.Sorted = n, true
		stats.Out, err = stream.CopyCancel[T](sink(o, dst), through(st), o.ctx.Err)
		return err
	})
	return stats, err
}

// Distinct sorts src and writes one element per equivalence class of the
// sorter's comparator to dst, in ascending order: the sorted-stream
// equivalent of SELECT DISTINCT. Equal elements are represented by the
// first of them in merged order. The context is honoured at batch
// boundaries throughout, exactly as in Sort.
func (s *Sorter[T]) Distinct(ctx context.Context, src Source[T], dst Sink[T]) (stats OpStats, err error) {
	o := startOp(ctx, s.cfg.Trace, "distinct")
	defer o.finish(&stats.Elapsed, &stats.Phases, &err)
	return s.piped(o, src, "distinct", dst, func(in stream.BatchReader[T]) stream.BatchReader[T] {
		return ops.NewDistinct[T](in, s.eq())
	})
}

// GroupBy sorts src, folds each run of same-group elements into a single
// element, and writes the folded groups to dst in ascending order — grouped
// aggregation over the sorted stream. sameGroup decides group membership
// against the group's first element and must agree with the sorter's order
// (same-group elements must be adjacent once sorted); nil means the
// comparator's equivalence classes. reduce folds one member into the
// accumulator, which the group's first element seeds.
func (s *Sorter[T]) GroupBy(ctx context.Context, src Source[T], sameGroup func(a, b T) bool, reduce func(acc, v T) T, dst Sink[T]) (stats OpStats, err error) {
	if reduce == nil {
		return OpStats{}, fmt.Errorf("repro: GroupBy requires a reduce function")
	}
	if sameGroup == nil {
		sameGroup = s.eq()
	}
	o := startOp(ctx, s.cfg.Trace, "groupby")
	defer o.finish(&stats.Elapsed, &stats.Phases, &err)
	var g *ops.GroupBy[T]
	stats, err = s.piped(o, src, "groupby", dst, func(in stream.BatchReader[T]) stream.BatchReader[T] {
		g = ops.NewGroupBy[T](in, sameGroup, reduce)
		return g
	})
	if g != nil {
		stats.Groups = g.Groups()
	}
	return stats, err
}

// TopK writes the k smallest elements of src to dst in ascending order.
//
// When k fits within the sorter's memory budget — the typical top-k query,
// k ≪ N — the external sort machinery is bypassed entirely: a bounded
// max-heap of k elements tracks the selection threshold, every element
// above it is discarded on sight, and nothing spills (OpStats.Sorted is
// false, Sort is zero). When k exceeds the budget, TopK falls back to a
// full run-generation pass but still skips the tail of the merge: the
// merged order is streamed and abandoned after k elements, so the final
// pass reads only what it emits.
func (s *Sorter[T]) TopK(ctx context.Context, src Source[T], k int, dst Sink[T]) (OpStats, error) {
	return s.kOf(ctx, src, k, sel.Smallest, "topk", "TopK", dst)
}

// JoinStats describes one merge-join execution.
type JoinStats struct {
	// Left and Right carry the two input sorts' statistics.
	Left, Right Stats
	// LeftIn and RightIn count elements consumed from each input; Out
	// counts joined elements emitted.
	LeftIn, RightIn, Out int64
	// MaxGroup is the largest equal-key right-side group buffered during
	// the join — its peak per-key memory, in elements.
	MaxGroup int
	// Elapsed is the end-to-end wall time of the join call.
	Elapsed time.Duration
	// Phases breaks Elapsed into "generate" (both sides' run generation
	// and merge setup) and "join" (draining the two merged orders).
	Phases []PhaseStat
}

// MergeJoin externally sorts both inputs and inner-joins them: for every
// pair (l, r) with cmp(l, r) == 0 it writes join(l, r) to dst, in ascending
// key order, left-then-right stream order within a key. cmp compares a left
// element to a right element by the join key and must be consistent with
// both sorters' comparators (ascending by that key), so matching keys meet
// as both merged streams drain. The join is many-to-many; only the current
// right-side key group is buffered, so memory beyond the two sorts is
// bounded by the largest set of equal-key right elements.
//
// The two sides may share a TempDir: their temporary files are namespaced
// apart. The context is honoured at batch boundaries in both sorts and in
// the join itself.
func MergeJoin[L, R, O any](ctx context.Context, left *Sorter[L], lsrc Source[L], right *Sorter[R], rsrc Source[R], cmp func(L, R) int, join func(L, R) O, dst Sink[O]) (stats JoinStats, err error) {
	if left == nil || right == nil {
		return JoinStats{}, fmt.Errorf("repro: MergeJoin requires both sorters")
	}
	if cmp == nil || join == nil {
		return JoinStats{}, fmt.Errorf("repro: MergeJoin requires cmp and join functions")
	}
	// The root join span goes to the left sorter's tracer; each side's
	// sort spans go to that side's own tracer as usual.
	o := startOp(ctx, left.cfg.Trace, "merge_join")
	defer o.finish(&stats.Elapsed, &stats.Phases, &err)
	// The right side generates while the left stream is already open, so
	// the left side's "drain" phase is still "generate"; "join" starts once
	// both merged orders are.
	stats.Left, err = left.streamed(o, source(o, lsrc), "joinl", "generate", func(lst *merge.Stream[L], _ int64) (err error) {
		stats.Right, err = right.streamed(o, source(o, rsrc), "joinr", "join", func(rst *merge.Stream[R], _ int64) error {
			js, err := ops.MergeJoin[L, R, O](lst, rst, cmp, join, sink(o, dst), o.ctx.Err)
			stats.LeftIn, stats.RightIn, stats.Out, stats.MaxGroup = js.LeftIn, js.RightIn, js.Out, js.MaxGroup
			return err
		})
		return err
	})
	return stats, err
}
