package repro

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/merge"
	"repro/internal/obs"
	sel "repro/internal/select"
	"repro/internal/stream"
)

// This file is the selection half of the operator layer: order statistics
// — the k-th smallest element, the values at a set of quantiles, the k
// largest elements — computed without a full sort whenever the input fits
// the memory budget, and through the run-generation machinery (but never a
// complete merge) when it does not. The in-memory algorithms live in
// internal/select: Sepesi's dualheap partition for exact selection, a
// multi-rank recursion for quantiles, and a Kaplan–Tarjan–Zwick soft heap
// for the approximate variant. See DESIGN.md §"Selection subsystem".

// SelectStats describes one selection execution.
type SelectStats struct {
	// Sort carries the underlying external sort's statistics. It is zero
	// when the selection ran entirely in memory (Sorted false).
	Sort Stats
	// In counts elements consumed from the source.
	In int64
	// Sorted reports whether the input spilled through run generation. The
	// in-memory paths leave it false: nothing was written anywhere.
	Sorted bool
	// Swaps counts dualheap root exchanges across all partitions — the
	// work the exchange loop did beyond building heaps. Zero on the spill
	// and approximate paths.
	Swaps int64
	// Corrupted counts the items left corrupted in the soft heap — held
	// under a soft key above their true key — when the selection finished
	// (ApproxSelect only). This is the quantity the soft-heap guarantee
	// bounds by ε·n at any moment.
	Corrupted int64
	// RankErrorBound is ⌈ε·n⌉, the guaranteed bound on how far the
	// approximate selection's rank may exceed k (ApproxSelect only).
	RankErrorBound int64
	// Elapsed is the end-to-end wall time of the selection call.
	Elapsed time.Duration
	// Phases breaks Elapsed into named per-phase wall durations in
	// execution order: "read" (buffering the input), then "partition"
	// (in-memory dualheap work) or — on the spill path — "generate" (run
	// generation and merge setup) and "select" (walking the merged
	// order). Their sum never exceeds Elapsed.
	Phases []PhaseStat
}

// parallelism resolves the configured concurrency bound for the in-memory
// selection algorithms: Config.Parallelism, with 0 meaning GOMAXPROCS.
func (s *Sorter[T]) parallelism() int {
	if s.cfg.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return s.cfg.Parallelism
}

// bufferWithin reads src into memory as long as the element count stays
// within limit. It returns the buffered prefix and whether the stream was
// exhausted within the limit; when it was not, the buffer holds exactly
// limit+1 elements and the source is positioned after them, ready for
// stream.Prepend to replay both into the spill path — how a selection that
// overflowed the memory budget hands on everything it has read.
func bufferWithin[T any](ctx context.Context, src Source[T], limit int) ([]T, bool, error) {
	return stream.ReadPrefix[T](&ctxReader[T]{ctx: ctx, src: src}, make([]T, 0, min(limit+1, 1<<16)), limit+1, nil)
}

// skipN discards n elements of the merged order, polling cancel between
// batches.
func skipN[T any](st *merge.Stream[T], n int64, cancel func() error) error {
	skipped, err := stream.Discard[T](st, n, cancel)
	if err == nil && skipped < n {
		err = fmt.Errorf("repro: merged stream ended %d elements early", n-skipped)
	}
	return err
}

// Select returns the element of rank k — the k-th smallest under the
// sorter's comparator, 1-based, so Select(ctx, src, 1) is the minimum and
// k = n the maximum. When the input fits the memory budget the selection
// runs in memory through a dualheap partition (Sepesi): two opposing heaps
// are built around the pivot index — in parallel when the configuration
// allows — and their roots exchanged until the k smallest elements sit
// below the pivot, where the answer is the bottom heap's root. No sort
// happens and nothing spills. A larger input falls back to run generation,
// and the answer is read from the merged order at position k, abandoning
// the merge there — the tail past rank k is never read.
func (s *Sorter[T]) Select(ctx context.Context, src Source[T], k int) (T, SelectStats, error) {
	var zero T
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 {
		return zero, SelectStats{}, fmt.Errorf("repro: Select requires rank k ≥ 1, got %d", k)
	}
	t := startOp(s.cfg.Trace, "select", obs.Int("k", int64(k)))
	t.phase("read")
	buf, fits, err := bufferWithin(ctx, src, s.cfg.MemoryRecords)
	if err != nil {
		stats := SelectStats{In: int64(len(buf))}
		err = ctxErr(ctx, err)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return zero, stats, err
	}
	if fits {
		n := len(buf)
		if k > n {
			stats := SelectStats{In: int64(n)}
			err := fmt.Errorf("repro: Select rank %d exceeds input size %d", k, n)
			t.finish(&stats.Elapsed, &stats.Phases, err)
			return zero, stats, err
		}
		t.phase("partition")
		swaps := sel.Partition(buf, k, s.less, s.parallelism())
		s.swapsCounter().Add(swaps)
		stats := SelectStats{In: int64(n), Swaps: swaps}
		t.finish(&stats.Elapsed, &stats.Phases, nil)
		return buf[0], stats, nil
	}
	t.phase("generate")
	st, rset, err := s.openSorted(ctx, stream.Prepend[T](buf, src), "select")
	if err != nil {
		stats := SelectStats{}
		err = ctxErr(ctx, err)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return zero, stats, err
	}
	stats := SelectStats{Sort: opSortStats(rset, st.Stats()), In: rset.Stats().Records, Sorted: true}
	if int64(k) > stats.In {
		st.Close()
		err := fmt.Errorf("repro: Select rank %d exceeds input size %d", k, stats.In)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return zero, stats, err
	}
	t.phase("select")
	v, err := selectAt(st, int64(k), ctx.Err)
	cerr := st.Close() // abandoning the merge here skips the tail past rank k
	stats.Sort = opSortStats(rset, st.Stats())
	if err == nil {
		err = cerr
	}
	err = ctxErr(ctx, err)
	t.finish(&stats.Elapsed, &stats.Phases, err)
	if err != nil {
		return zero, stats, err
	}
	return v, stats, nil
}

// selectAt reads forward to rank k (1-based) in the merged order and
// returns the element there.
func selectAt[T any](st *merge.Stream[T], k int64, cancel func() error) (T, error) {
	var zero T
	if err := skipN[T](st, k-1, cancel); err != nil {
		return zero, err
	}
	v, err := st.Read()
	if err != nil {
		return zero, err
	}
	return v, nil
}

// Quantiles returns the elements at the given quantiles of src under the
// sorter's comparator: for each q in qs, the element of rank ⌈q·n⌉
// (clamped to [1, n]), so 0.5 is the median and 1 the maximum. The result
// is index-aligned with qs, which need not be sorted. In memory the values
// come from one multiselect pass — the array is partitioned recursively at
// the middle remaining rank, so all quantiles cost far less than a sort.
// A larger input falls back to run generation, and the values are picked
// out of the merged order in one forward walk that stops at the last rank.
func (s *Sorter[T]) Quantiles(ctx context.Context, src Source[T], qs []float64) ([]T, SelectStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(qs) == 0 {
		return nil, SelectStats{}, fmt.Errorf("repro: Quantiles requires at least one quantile")
	}
	for _, q := range qs {
		if math.IsNaN(q) || q < 0 || q > 1 {
			return nil, SelectStats{}, fmt.Errorf("repro: quantile %v outside [0, 1]", q)
		}
	}
	t := startOp(s.cfg.Trace, "quantiles", obs.Int("quantiles", int64(len(qs))))
	t.phase("read")
	buf, fits, err := bufferWithin(ctx, src, s.cfg.MemoryRecords)
	if err != nil {
		stats := SelectStats{In: int64(len(buf))}
		err = ctxErr(ctx, err)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return nil, stats, err
	}
	if fits {
		n := len(buf)
		if n == 0 {
			stats := SelectStats{}
			err := fmt.Errorf("repro: Quantiles of an empty input")
			t.finish(&stats.Elapsed, &stats.Phases, err)
			return nil, stats, err
		}
		t.phase("partition")
		ranks, at := sel.QuantileRanks(qs, int64(n))
		swaps, err := sel.Multiselect(buf, ranks, s.less, s.parallelism())
		if err != nil {
			stats := SelectStats{In: int64(n)}
			t.finish(&stats.Elapsed, &stats.Phases, err)
			return nil, stats, err
		}
		s.swapsCounter().Add(swaps)
		out := make([]T, len(qs))
		for i := range qs {
			out[i] = buf[ranks[at[i]]-1]
		}
		stats := SelectStats{In: int64(n), Swaps: swaps}
		t.finish(&stats.Elapsed, &stats.Phases, nil)
		return out, stats, nil
	}
	t.phase("generate")
	st, rset, err := s.openSorted(ctx, stream.Prepend[T](buf, src), "quantiles")
	if err != nil {
		stats := SelectStats{}
		err = ctxErr(ctx, err)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return nil, stats, err
	}
	stats := SelectStats{Sort: opSortStats(rset, st.Stats()), In: rset.Stats().Records, Sorted: true}
	t.phase("select")
	ranks, at := sel.QuantileRanks(qs, stats.In)
	picked := make([]T, len(ranks))
	var pos int64
	perr := func() error {
		for i, r := range ranks {
			v, err := selectAt(st, int64(r)-pos, ctx.Err)
			if err != nil {
				return err
			}
			picked[i] = v
			pos = int64(r)
		}
		return nil
	}()
	cerr := st.Close() // the tail past the last rank is never read
	stats.Sort = opSortStats(rset, st.Stats())
	if perr == nil {
		perr = cerr
	}
	perr = ctxErr(ctx, perr)
	t.finish(&stats.Elapsed, &stats.Phases, perr)
	if perr != nil {
		return nil, stats, perr
	}
	out := make([]T, len(qs))
	for i := range qs {
		out[i] = picked[at[i]]
	}
	return out, stats, nil
}

// BottomK writes the k largest elements of src to dst in ascending order —
// the mirror of TopK, sharing its direction-parameterized selection core.
// When k fits within the memory budget a bounded min-heap of k elements
// tracks the selection threshold and nothing spills; otherwise the input
// goes through run generation and the merged order is fast-forwarded to
// its last k elements, so the merge still skips everything it can.
func (s *Sorter[T]) BottomK(ctx context.Context, src Source[T], k int, dst Sink[T]) (OpStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 0 {
		return OpStats{}, fmt.Errorf("repro: BottomK requires k ≥ 0, got %d", k)
	}
	if k == 0 {
		return OpStats{}, nil
	}
	t := startOp(s.cfg.Trace, "bottomk", obs.Int("k", int64(k)))
	if k <= s.cfg.MemoryRecords {
		t.phase("select")
		vals, read, err := sel.Stream[T](&ctxReader[T]{ctx: ctx, src: src}, k, sel.Largest, s.less, ctx.Err)
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
	st, rset, err := s.openSorted(ctx, src, "bottomk")
	if err != nil {
		stats := OpStats{}
		err = ctxErr(ctx, err)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return stats, err
	}
	t.phase("select")
	n := rset.Stats().Records
	skip := n - int64(k)
	if skip < 0 {
		skip = 0
	}
	out, serr := int64(0), skipN[T](st, skip, ctx.Err)
	if serr == nil {
		out, serr = stream.CopyN[T](&ctxWriter[T]{ctx: ctx, dst: dst}, st, int64(k), ctx.Err)
	}
	cerr := st.Close()
	stats := OpStats{Sort: opSortStats(rset, st.Stats()), In: n, Out: out, Sorted: true}
	if serr == nil {
		serr = cerr
	}
	serr = ctxErr(ctx, serr)
	t.finish(&stats.Elapsed, &stats.Phases, serr)
	return stats, serr
}

// ApproxSelect returns an element whose rank is within [k, k+⌈ε·n⌉] — an
// approximate k-th smallest with a tunable corruption budget, per the
// soft-heap selection of Kaplan, Tarjan and Zwick. The input is loaded
// into a soft heap whose car-pooling corrupts at most ε·n items, and the
// largest of k extractions is returned: every element smaller than it is
// either among the k extracted or corrupted, which is the whole rank
// guarantee. eps = 0 degrades to exact selection. Unlike Select, the
// approximate path keeps all n elements in memory regardless of the
// memory budget — the soft heap is a comparison-saving device, not a
// spilling one — and the returned stats carry both the guaranteed
// RankErrorBound and the observed Corrupted count.
func (s *Sorter[T]) ApproxSelect(ctx context.Context, src Source[T], k int, eps float64) (T, SelectStats, error) {
	var zero T
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 {
		return zero, SelectStats{}, fmt.Errorf("repro: ApproxSelect requires rank k ≥ 1, got %d", k)
	}
	h, err := sel.NewSoftHeap[T](eps, s.less)
	if err != nil {
		return zero, SelectStats{}, err
	}
	t := startOp(s.cfg.Trace, "approx_select", obs.Int("k", int64(k)))
	t.phase("read")
	vals, err := stream.ReadAllCancel[T](&ctxReader[T]{ctx: ctx, src: src}, ctx.Err)
	if err != nil {
		stats := SelectStats{In: int64(len(vals))}
		err = ctxErr(ctx, err)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return zero, stats, err
	}
	n := int64(len(vals))
	stats := SelectStats{In: n, RankErrorBound: int64(math.Ceil(eps * float64(n)))}
	if int64(k) > n {
		err := fmt.Errorf("repro: ApproxSelect rank %d exceeds input size %d", k, n)
		t.finish(&stats.Elapsed, &stats.Phases, err)
		return zero, stats, err
	}
	t.phase("select")
	for _, v := range vals {
		h.Insert(v)
	}
	// The largest of k extractions: each extraction removes a current soft
	// minimum, so everything smaller than the running maximum is either
	// already extracted or corrupted.
	best, _ := h.ExtractMin()
	for i := 1; i < k; i++ {
		v, _ := h.ExtractMin()
		if s.less(best, v) {
			best = v
		}
	}
	stats.Corrupted = h.Corrupted()
	t.finish(&stats.Elapsed, &stats.Phases, nil)
	return best, stats, nil
}
