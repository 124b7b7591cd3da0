package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/extsort"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/ops"
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
	less := s.less
	return func(a, b T) bool { return !less(a, b) && !less(b, a) }
}

// openSorted runs the sort's first phase over the context-wrapped source and
// opens the merged order as a pull stream. The caller owns both returns:
// Close the stream (which deletes the remaining run files) exactly once.
// prefix namespaces this operator's temporary files so concurrent phases —
// e.g. the two sides of a MergeJoin sharing a TempDir — cannot collide.
func (s *Sorter[T]) openSorted(ctx context.Context, src Source[T], prefix string) (*merge.Stream[T], *extsort.RunSet[T], error) {
	fs := s.fs
	if fs == nil {
		var err error
		fs, err = s.cfg.filesystem()
		if err != nil {
			return nil, nil, err
		}
	}
	icfg := s.cfg.toInternal()
	icfg.Cancel = ctx.Err
	icfg.Prefix = prefix
	rset, err := extsort.GenerateRuns[T](&ctxReader[T]{ctx: ctx, src: src}, fs, icfg, s.ops())
	if err != nil {
		return nil, nil, err
	}
	st, err := rset.OpenMerged()
	if err != nil {
		rset.Discard()
		return nil, nil, err
	}
	return st, rset, nil
}

// opSortStats assembles the two-phase sort statistics of an operator run:
// the run-generation half from the RunSet, the merge half from the Stream.
func opSortStats[T any](rset *extsort.RunSet[T], ms merge.Stats) Stats {
	st := rset.Stats()
	st.MergeInputs = ms.Inputs
	st.MergePasses = ms.Passes
	st.MergeOps = ms.Merges
	return st
}

// ctxErr prefers the context's cancellation cause over the transport error
// it surfaced as, matching Sort's error mapping.
func ctxErr(ctx context.Context, err error) error {
	if err != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// Distinct sorts src and writes one element per equivalence class of the
// sorter's comparator to dst, in ascending order: the sorted-stream
// equivalent of SELECT DISTINCT. Equal elements are represented by the
// first of them in merged order. The context is honoured at batch
// boundaries throughout, exactly as in Sort.
func (s *Sorter[T]) Distinct(ctx context.Context, src Source[T], dst Sink[T]) (OpStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	t := startOp(s.cfg.Trace, "distinct")
	t.phase("generate")
	st, rset, err := s.openSorted(ctx, src, "distinct")
	if err != nil {
		stats := OpStats{}
		err = ctxErr(ctx, err)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return stats, err
	}
	t.phase("distinct")
	d := ops.NewDistinct[T](st, s.eq())
	out, err := stream.CopyCancel[T](&ctxWriter[T]{ctx: ctx, dst: dst}, d, ctx.Err)
	cerr := st.Close()
	stats := OpStats{Sort: opSortStats(rset, st.Stats()), In: rset.Stats().Records, Out: out, Sorted: true}
	if err == nil {
		err = cerr
	}
	err = ctxErr(ctx, err)
	t.finish(&stats.Elapsed, &stats.Phases, err)
	return stats, err
}

// GroupBy sorts src, folds each run of same-group elements into a single
// element, and writes the folded groups to dst in ascending order — grouped
// aggregation over the sorted stream. sameGroup decides group membership
// against the group's first element and must agree with the sorter's order
// (same-group elements must be adjacent once sorted); nil means the
// comparator's equivalence classes. reduce folds one member into the
// accumulator, which the group's first element seeds.
func (s *Sorter[T]) GroupBy(ctx context.Context, src Source[T], sameGroup func(a, b T) bool, reduce func(acc, v T) T, dst Sink[T]) (OpStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if reduce == nil {
		return OpStats{}, fmt.Errorf("repro: GroupBy requires a reduce function")
	}
	if sameGroup == nil {
		sameGroup = s.eq()
	}
	t := startOp(s.cfg.Trace, "groupby")
	t.phase("generate")
	st, rset, err := s.openSorted(ctx, src, "groupby")
	if err != nil {
		stats := OpStats{}
		err = ctxErr(ctx, err)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return stats, err
	}
	t.phase("groupby")
	g := ops.NewGroupBy[T](st, sameGroup, reduce)
	out, err := stream.CopyCancel[T](&ctxWriter[T]{ctx: ctx, dst: dst}, g, ctx.Err)
	cerr := st.Close()
	stats := OpStats{
		Sort:   opSortStats(rset, st.Stats()),
		In:     rset.Stats().Records,
		Out:    out,
		Groups: g.Groups(),
		Sorted: true,
	}
	if err == nil {
		err = cerr
	}
	err = ctxErr(ctx, err)
	t.finish(&stats.Elapsed, &stats.Phases, err)
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
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 0 {
		return OpStats{}, fmt.Errorf("repro: TopK requires k ≥ 0, got %d", k)
	}
	if k == 0 {
		return OpStats{}, nil
	}
	t := startOp(s.cfg.Trace, "topk", obs.Int("k", int64(k)))
	if k <= s.cfg.MemoryRecords {
		t.phase("select")
		vals, read, err := ops.TopK[T](&ctxReader[T]{ctx: ctx, src: src}, k, s.less, ctx.Err)
		if err != nil {
			stats := OpStats{In: read}
			err = ctxErr(ctx, err)
			t.finish(&stats.Elapsed, &stats.Phases, err)
			return stats, err
		}
		w := &ctxWriter[T]{ctx: ctx, dst: dst}
		err = stream.WriteAll[T](w, vals)
		stats := OpStats{In: read}
		if err == nil {
			stats.Out = int64(len(vals))
		}
		err = ctxErr(ctx, err)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return stats, err
	}
	t.phase("generate")
	st, rset, err := s.openSorted(ctx, src, "topk")
	if err != nil {
		stats := OpStats{}
		err = ctxErr(ctx, err)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return stats, err
	}
	t.phase("select")
	out, err := stream.CopyN[T](&ctxWriter[T]{ctx: ctx, dst: dst}, st, int64(k), ctx.Err)
	cerr := st.Close() // abandoning the stream here is what skips the tail
	stats := OpStats{Sort: opSortStats(rset, st.Stats()), In: rset.Stats().Records, Out: out, Sorted: true}
	if err == nil {
		err = cerr
	}
	err = ctxErr(ctx, err)
	t.finish(&stats.Elapsed, &stats.Phases, err)
	return stats, err
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
func MergeJoin[L, R, O any](ctx context.Context, left *Sorter[L], lsrc Source[L], right *Sorter[R], rsrc Source[R], cmp func(L, R) int, join func(L, R) O, dst Sink[O]) (JoinStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if left == nil || right == nil {
		return JoinStats{}, fmt.Errorf("repro: MergeJoin requires both sorters")
	}
	if cmp == nil || join == nil {
		return JoinStats{}, fmt.Errorf("repro: MergeJoin requires cmp and join functions")
	}
	// The root join span goes to the left sorter's tracer; each side's
	// sort spans go to that side's own tracer as usual.
	t := startOp(left.cfg.Trace, "merge_join")
	t.phase("generate")
	lst, lrset, err := left.openSorted(ctx, lsrc, "joinl")
	if err != nil {
		stats := JoinStats{}
		err = ctxErr(ctx, err)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return stats, err
	}
	rst, rrset, err := right.openSorted(ctx, rsrc, "joinr")
	if err != nil {
		lst.Close()
		stats := JoinStats{Left: opSortStats(lrset, lst.Stats())}
		err = ctxErr(ctx, err)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return stats, err
	}
	t.phase("join")
	js, err := ops.MergeJoin[L, R, O](lst, rst, cmp, join, &ctxWriter[O]{ctx: ctx, dst: dst}, ctx.Err)
	lcerr, rcerr := lst.Close(), rst.Close()
	stats := JoinStats{
		Left:     opSortStats(lrset, lst.Stats()),
		Right:    opSortStats(rrset, rst.Stats()),
		LeftIn:   js.LeftIn,
		RightIn:  js.RightIn,
		Out:      js.Out,
		MaxGroup: js.MaxGroup,
	}
	if err == nil {
		err = lcerr
	}
	if err == nil {
		err = rcerr
	}
	err = ctxErr(ctx, err)
	t.finish(&stats.Elapsed, &stats.Phases, err)
	return stats, err
}
