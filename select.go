package repro

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/extsort"
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

// rankRange is a span of the sorted order by 1-based rank, both ends
// included.
type rankRange struct{ lo, hi int64 }

// rankQuery is the one rank query behind TopK, BottomK, Select and
// Quantiles — "the k smallest" and "the k-th smallest" are one selection
// problem (Kaplan et al., Sepesi) — and the one place that decides between
// its two halves. memory tries to answer without sorting: it returns a nil
// source when it did, and otherwise the whole input again (whatever it read
// re-served in front of the rest) for the spilled half. That half generates
// runs and takes one forward walk over the merged order: ranges names, for
// an input of n elements, the ascending disjoint rank ranges wanted; the
// walk skips to each, copies it into w — a pick is a range of one — and
// abandons the merge after the last, so the tail past it is never read.
// The result is an OpStats less its timing, which is the skeleton's.
func (s *Sorter[T]) rankQuery(o *op, name string, w stream.BatchWriter[T],
	memory func(r *OpStats) (stream.BatchReader[T], error), ranges func(n int64) ([]rankRange, error)) (r OpStats, err error) {
	rest, err := memory(&r)
	if rest == nil || err != nil {
		return r, err
	}
	r.Sort, err = s.streamed(o, rest, name, "select", func(st *merge.Stream[T], n int64) error {
		r.In, r.Sorted = n, true
		want, err := ranges(n)
		if err != nil {
			return err
		}
		var at int64 // rank of the last element read
		for _, rg := range want {
			skipped, err := stream.Discard[T](st, rg.lo-1-at, o.ctx.Err)
			if err != nil {
				return err
			}
			copied, err := stream.CopyN[T](w, st, rg.hi-rg.lo+1, o.ctx.Err)
			r.Out += copied
			if err != nil {
				return err
			}
			if at += skipped + copied; at < rg.hi {
				return fmt.Errorf("repro: merged stream ended %d elements early", rg.hi-at)
			}
		}
		return nil
	})
	return r, err
}

// pick is Select and Quantiles: the elements at the ranks that ranks names
// for an input of n elements (ascending and distinct), in that order. Its
// memory half reads src as long as the element count stays within the
// memory budget and, when the stream ends inside it, places every rank with
// one multiselect pass — a dualheap partition (Sepesi) at the middle
// remaining rank, recursively. When it does not, the buffer holds one
// element more than the budget and the source is positioned after them;
// stream.Prepend replays both into the spilled half — how a selection that
// overflowed hands on everything it has read.
func (s *Sorter[T]) pick(o *op, name string, src Source[T], ranks func(n int64) ([]int, error)) ([]T, SelectStats, error) {
	var picked stream.SliceWriter[T]
	var swaps int64
	in := source(o, src)
	r, err := s.rankQuery(o, name, &picked,
		func(r *OpStats) (stream.BatchReader[T], error) {
			o.phase("read")
			limit := s.cfg.MemoryRecords + 1
			buf, fits, err := stream.ReadPrefix(in, make([]T, 0, min(limit, 1<<16)), limit, nil)
			r.In = int64(len(buf))
			if err != nil {
				return nil, err
			}
			if !fits {
				return stream.Prepend(buf, in), nil
			}
			o.phase("partition")
			want, err := ranks(r.In)
			if err == nil {
				// Config.Parallelism bounds the heap builds, 0 meaning GOMAXPROCS.
				par := extsort.Config{Parallelism: s.cfg.Parallelism}.Resolved().Parallelism
				swaps, err = sel.Multiselect(buf, want, s.ops.Less, par)
			}
			if err != nil {
				return nil, err
			}
			s.cfg.Metrics.Counter(obs.MHeapSwaps, "Dualheap root exchanges during in-memory selection.").Add(swaps)
			for _, rank := range want {
				picked.Vals = append(picked.Vals, buf[rank-1])
			}
			return nil, nil
		},
		func(n int64) ([]rankRange, error) {
			want, err := ranks(n)
			one := make([]rankRange, len(want))
			for i, rank := range want {
				one[i] = rankRange{int64(rank), int64(rank)}
			}
			return one, err
		})
	return picked.Vals, SelectStats{Sort: r.Sort, In: r.In, Sorted: r.Sorted, Swaps: swaps}, err
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
func (s *Sorter[T]) Select(ctx context.Context, src Source[T], k int) (v T, stats SelectStats, err error) {
	if k < 1 {
		return v, SelectStats{}, fmt.Errorf("repro: Select requires rank k ≥ 1, got %d", k)
	}
	o := startOp(ctx, s.cfg.Trace, "select", obs.Int("k", int64(k)))
	defer o.finish(&stats.Elapsed, &stats.Phases, &err)
	picked, stats, err := s.pick(o, "select", src, func(n int64) ([]int, error) {
		if int64(k) > n {
			return nil, fmt.Errorf("repro: Select rank %d exceeds input size %d", k, n)
		}
		return []int{k}, nil
	})
	if err != nil {
		return v, stats, err
	}
	return picked[0], stats, nil
}

// Quantiles returns the elements at the given quantiles of src under the
// sorter's comparator: for each q in qs, the element of rank ⌈q·n⌉
// (clamped to [1, n]), so 0.5 is the median and 1 the maximum. The result
// is index-aligned with qs, which need not be sorted. In memory the values
// come from one multiselect pass — the array is partitioned recursively at
// the middle remaining rank, so all quantiles cost far less than a sort.
// A larger input falls back to run generation, and the values are picked
// out of the merged order in one forward walk that stops at the last rank.
func (s *Sorter[T]) Quantiles(ctx context.Context, src Source[T], qs []float64) (out []T, stats SelectStats, err error) {
	if len(qs) == 0 {
		return nil, SelectStats{}, fmt.Errorf("repro: Quantiles requires at least one quantile")
	}
	for _, q := range qs {
		if math.IsNaN(q) || q < 0 || q > 1 {
			return nil, SelectStats{}, fmt.Errorf("repro: quantile %v outside [0, 1]", q)
		}
	}
	o := startOp(ctx, s.cfg.Trace, "quantiles", obs.Int("quantiles", int64(len(qs))))
	defer o.finish(&stats.Elapsed, &stats.Phases, &err)
	var at []int // at[i] is where qs[i]'s rank sits among the distinct ranks picked
	picked, stats, err := s.pick(o, "quantiles", src, func(n int64) (ranks []int, err error) {
		if n == 0 {
			return nil, fmt.Errorf("repro: Quantiles of an empty input")
		}
		ranks, at = sel.QuantileRanks(qs, n)
		return ranks, nil
	})
	if err != nil {
		return nil, stats, err
	}
	out = make([]T, len(qs))
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
	return s.kOf(ctx, src, k, sel.Largest, "bottomk", "BottomK", dst)
}

// kOf is TopK and BottomK: the k elements at one end of the order (dir),
// ascending, under the given span name and method name. With k within the
// memory budget a bounded heap of k elements selects them from the stream
// on sight (sel.Stream) — the input itself may be any size — and nothing
// spills; otherwise the k ranks at that end are walked off the merged order.
func (s *Sorter[T]) kOf(ctx context.Context, src Source[T], k int, dir sel.Dir, name, method string, dst Sink[T]) (stats OpStats, err error) {
	if k < 0 {
		return OpStats{}, fmt.Errorf("repro: %s requires k ≥ 0, got %d", method, k)
	}
	if k == 0 {
		return OpStats{}, nil
	}
	o := startOp(ctx, s.cfg.Trace, name, obs.Int("k", int64(k)))
	defer o.finish(&stats.Elapsed, &stats.Phases, &err)
	w, in := sink(o, dst), source(o, src)
	return s.rankQuery(o, name, w,
		func(r *OpStats) (stream.BatchReader[T], error) {
			if k > s.cfg.MemoryRecords {
				return in, nil
			}
			o.phase("select")
			vals, read, err := sel.Stream(in, k, dir, s.ops.Less, o.ctx.Err)
			r.In = read
			if err == nil {
				err = w.WriteBatch(vals)
			}
			if err == nil {
				r.Out = int64(len(vals))
			}
			return nil, err
		},
		func(n int64) ([]rankRange, error) {
			last := min(int64(k), n)
			if dir == sel.Largest {
				return []rankRange{{n - last + 1, n}}, nil
			}
			return []rankRange{{1, last}}, nil
		})
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
func (s *Sorter[T]) ApproxSelect(ctx context.Context, src Source[T], k int, eps float64) (best T, stats SelectStats, err error) {
	if k < 1 {
		return best, SelectStats{}, fmt.Errorf("repro: ApproxSelect requires rank k ≥ 1, got %d", k)
	}
	h, err := sel.NewSoftHeap[T](eps, s.ops.Less)
	if err != nil {
		return best, SelectStats{}, err
	}
	o := startOp(ctx, s.cfg.Trace, "approx_select", obs.Int("k", int64(k)))
	defer o.finish(&stats.Elapsed, &stats.Phases, &err)
	o.phase("read")
	vals, err := stream.ReadAllCancel(source(o, src), o.ctx.Err)
	n := int64(len(vals))
	stats.In = n
	if err != nil {
		return best, stats, err
	}
	stats.RankErrorBound = int64(math.Ceil(eps * float64(n)))
	if int64(k) > n {
		return best, stats, fmt.Errorf("repro: ApproxSelect rank %d exceeds input size %d", k, n)
	}
	o.phase("select")
	for _, v := range vals {
		h.Insert(v)
	}
	// The largest of k extractions: each extraction removes a current soft
	// minimum, so everything smaller than the running maximum is either
	// already extracted or corrupted.
	best, _ = h.ExtractMin()
	for i := 1; i < k; i++ {
		v, _ := h.ExtractMin()
		if s.ops.Less(best, v) {
			best = v
		}
	}
	stats.Corrupted = h.Corrupted()
	return best, stats, nil
}
