// Package distsort implements a sharded, range-partitioned distribution
// sort on top of the extsort driver.
//
// The engine samples a memory-sized prefix of the input, picks S-1
// splitters at the sample's quantile ranks (sel.Multiselect), and
// range-partitions the stream into S non-overlapping shards. Each shard is
// sorted concurrently on its own goroutine by its own extsort run — its own
// temp-file prefix, its own carved share of the memory budget, and in
// durable mode its own manifest — and because the shard key ranges are
// disjoint the shard outputs are simply concatenated in splitter order: no
// final cross-shard k-way merge ever touches the data.
//
// Comparator-equal splitters are collapsed into bands whose ties are
// spread round-robin across the band's shards, so heavily duplicated
// inputs (including all-equal keys) cannot degenerate into one giant
// shard. The partition pass is deterministic — same input, same
// configuration, same routing — which is what lets a crashed durable sort
// resume: the partition replays, each shard's extsort recovers its own
// manifest runs, and only the unfinished shards regenerate.
package distsort

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/extsort"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/runio"
	"repro/internal/stream"
	"repro/internal/vfs"
)

const (
	// feedBatch is the element batch size the partition loop reads and
	// deals to the shards.
	feedBatch = 1024
	// feedDepth is how many dealt batches queue to each shard beside the
	// one the loop fills and the one the shard reads: a shard owns
	// feedDepth+2 blocks, which bound its records in flight.
	feedDepth = 4
)

// errAborted is what a shard's feed reports once another part of the
// sharded sort has failed; the failure that caused the abort is what Sort
// reports.
var errAborted = errors.New("distsort: aborted by concurrent failure")

// Config configures one sharded sort.
type Config struct {
	// Shards is the number of range shards S. Zero picks the extsort
	// parallelism (GOMAXPROCS when that is also unset); one bypasses
	// partitioning entirely and delegates to a single extsort run.
	// Durable sorts (Manifest or Resume set) must pick explicitly,
	// because the automatic count could differ across restarts and
	// orphan the previous attempt's per-shard manifests.
	Shards int

	// SampleLimit caps how many records of the input's head are buffered
	// to choose the splitters. Zero means Extsort.Memory. An input that
	// fits entirely within the limit is sorted by one full-budget extsort
	// run instead of being sharded.
	SampleLimit int

	// Extsort is the per-shard sort configuration template. Memory is
	// the total budget in records and is carved evenly across the
	// shards; Prefix namespaces the whole sort and each shard appends
	// its own "-sNN" suffix, so shard spill files and manifests never
	// collide. Manifest gives every shard its own durable manifest;
	// Resume replays the partition and recovers per shard. Trace and
	// Metrics are shared by the partition pass and all shards.
	Extsort extsort.Config
}

// Sort is SortBatch over a caller's source, adapted once here.
func Sort[T any](src stream.Reader[T], dst stream.Writer[T], fs vfs.FS, cfg Config, ops extsort.Ops[T]) (extsort.Stats, error) {
	return SortBatch(stream.AsBatchReader(src), dst, fs, cfg, ops)
}

// SortBatch range-partitions src into shards, sorts them concurrently and
// concatenates the shard outputs into dst in splitter order. The returned
// stats aggregate all shards; Shards and ShardRecords describe the
// partitioning itself.
//
// When comparator-equal elements are bitwise identical (always true for
// total keys), the output is byte-identical to a single unsharded extsort
// run over the same input; otherwise it is the same multiset in the same
// comparator order with ties possibly permuted.
func SortBatch[T any](src stream.BatchReader[T], dst stream.Writer[T], fs vfs.FS, cfg Config, ops extsort.Ops[T]) (extsort.Stats, error) {
	entry := time.Now()
	// Resolved once, so the shard count, the router and every shard's carved
	// configuration read the same prefix and parallelism. A zero FanIn stays
	// zero: each shard derives it from its own share of the budget.
	cfg.Extsort = cfg.Extsort.Resolved()
	shards := cfg.Shards
	if shards <= 0 {
		if cfg.Extsort.Manifest || cfg.Extsort.Resume {
			return extsort.Stats{}, fmt.Errorf("distsort: durable sorts need an explicit shard count, got %d", cfg.Shards)
		}
		shards = cfg.Extsort.Parallelism
	}
	if cfg.Extsort.Memory <= 0 {
		return extsort.Stats{}, fmt.Errorf("distsort: memory must be positive, got %d", cfg.Extsort.Memory)
	}
	if shards == 1 {
		return extsort.SortBatch(src, dst, fs, cfg.Extsort, ops)
	}
	limit := cfg.SampleLimit
	if limit <= 0 {
		limit = cfg.Extsort.Memory
	}
	if min := 2 * shards; limit < min {
		limit = min
	}
	// One element past the limit tells a stream that fits from one that does
	// not; src continues after the sample either way.
	sample, fits, err := stream.ReadPrefix(src, make([]T, 0, feedBatch), limit+1, cfg.Extsort.Cancel)
	if err != nil {
		return extsort.Stats{}, err
	}
	if fits {
		// The whole input fit inside the sample: one full-budget sort is
		// cheaper than S tiny ones and trivially identical to the
		// unsharded output. Deterministic, so a resumed sort re-takes
		// the same branch.
		return extsort.SortBatch(stream.NewSliceReader(sample), dst, fs, cfg.Extsort, ops)
	}
	rt, err := newRouter(sample, shards, ops.Less, cfg.Extsort.Parallelism)
	if err != nil {
		return extsort.Stats{}, err
	}
	return shardedSort(entry, sample, src, dst, fs, cfg, ops, shards, rt)
}

// shardedSort runs the partition loop and the S concurrent shard sorts,
// drains the shards' merge streams into dst in shard order, and aggregates
// the statistics.
func shardedSort[T any](entry time.Time, sample []T, src stream.BatchReader[T], dst stream.Writer[T], fs vfs.FS, cfg Config, ops extsort.Ops[T], shards int, rt *router[T]) (extsort.Stats, error) {
	tr := cfg.Extsort.Trace
	cancel := cfg.Extsort.Cancel
	// The shards report nothing (shardConfig): S concurrent sorts reporting
	// phases would interleave meaninglessly. The driver reports for them.
	rep := cfg.Extsort.Progress.Start(cfg.Extsort.Prefix)
	defer rep.Stop()
	// The feed is also the sort's first-failure latch: a failure anywhere
	// stops it, which unblocks the partition loop and every shard.
	feed := stream.NewFeed[T](shards, feedDepth+2, feedBatch, errAborted)
	shs := make([]shard[T], shards)
	for i := range shs {
		shs[i].done = make(chan struct{})
		go shs[i].run(i, feed, fs, shardConfig(cfg, shards, i), ops)
	}

	// Partition overlaps run generation: shards consume their feeds while
	// the loop is still routing, so the "partition" phase covers both.
	rep.SetPhase("partition", -1)
	psp := tr.StartOn("shard_partition", "shard_partition",
		obs.Int("shards", int64(shards)), obs.Int("sample", int64(len(sample))), obs.Int("splitters", int64(len(rt.bounds))))
	partStart := time.Now()
	counts, perr := partition(sample, src, feed, rt, cancel, rep)
	partWall := time.Since(partStart)
	if perr != nil {
		feed.Stop(perr)
		psp.Drop()
	} else {
		psp.End(obs.Int("max_shard", slices.Max(counts)))
	}
	feed.Close()

	// Concatenate: the shard ranges are disjoint and ordered, so copying
	// each shard's merge stream in shard order is the merge. A later shard
	// keeps merging on its own goroutine while an earlier one drains.
	var total int64
	for _, c := range counts {
		total += c
	}
	rep.SetPhase("merge", total)
	st := extsort.Stats{Shards: shards, ShardRecords: counts}
	cat := &joined[T]{less: ops.Less, rep: rep}
	drainStart := time.Now()
	for i := range shs {
		s, err := shs[i].finish(dst, feed, cancel, cat)
		if err != nil {
			feed.Stop(err)
			continue
		}
		if i == 0 {
			st.Keyed, st.Policy, st.Storage = s.Keyed, s.Policy, s.Storage
			st.Lanes, st.LaneMemory = s.Lanes, s.LaneMemory
		}
		st.Records += s.Records
		st.Runs += s.Runs
		st.RunsRecovered += s.RunsRecovered
		st.OverlapRuns += s.OverlapRuns
		st.MergeInputs += s.MergeInputs
		st.MergeOps += s.MergeOps
		st.MergePasses = max(st.MergePasses, s.MergePasses)
		addIO(&st.IO, s.IO)
	}
	drainWall := time.Since(drainStart)
	if err := feed.Err(); err != nil {
		return extsort.Stats{}, err
	}
	if st.Runs > 0 {
		st.AvgRunLength = float64(st.Records) / float64(st.Runs)
	}
	st.Phases = []extsort.PhaseStat{
		{Name: "partition", Wall: partWall},
		{Name: "merge", Wall: drainWall},
	}
	st.Elapsed = time.Since(entry)
	if m := cfg.Extsort.Metrics; m != nil {
		m.Counter(obs.MShards, "Range shards executed by distribution sorts.").Add(int64(shards))
		h := m.Histogram(obs.MShardRecords, "Records routed to each range shard.", obs.RunLengthBuckets)
		for _, c := range counts {
			h.Observe(float64(c))
		}
	}
	return st, nil
}

// MergeFanIn returns the fan-in each shard of a sort under c merges at, of
// elements stored in elementBytes each: the template's rule
// (extsort.Config.MergeFanIn) read on one shard's share of the memory
// budget, which is all that shard's merge buffers have.
func (c Config) MergeFanIn(elementBytes int) int {
	shards := c.Shards
	if shards <= 0 {
		shards = c.Extsort.Resolved().Parallelism
	}
	return shardConfig(c, shards, 0).MergeFanIn(elementBytes)
}

// shardConfig carves shard i's extsort configuration out of the resolved
// template (Sort resolves it): an even share of the memory budget, a
// namespaced spill prefix (which in durable mode also namespaces the
// shard's manifest), and a share of the merge parallelism. The progress
// reporter stays with the driver.
func shardConfig(cfg Config, shards, i int) extsort.Config {
	scfg := cfg.Extsort
	scfg.Memory = max(scfg.Memory/shards, 1)
	scfg.Prefix = fmt.Sprintf("%s-s%02d", scfg.Prefix, i)
	scfg.Parallelism = max(scfg.Parallelism/shards, 1)
	scfg.Progress = nil
	return scfg
}

// shard is what one shard goroutine hands the driver once done is closed:
// its run set and the merge stream over it, whose intermediate merges are
// already complete. Either is nil when the shard failed before reaching it.
type shard[T any] struct {
	rset *extsort.RunSet[T]
	st   *merge.Stream[T]
	sp   *obs.Span
	done chan struct{}
}

// run sorts shard i up to its final merge: it generates runs from what the
// feed deals it, runs the intermediate merges and leaves the final one open
// for the driver. A failed shard has left its run set by the one exit
// (RunSet.Abandon) and stops the feed.
func (sh *shard[T]) run(i int, feed *stream.Feed[T], fs vfs.FS, scfg extsort.Config, ops extsort.Ops[T]) {
	defer close(sh.done)
	sh.sp = scfg.Trace.StartOn("shard_sort", fmt.Sprintf("shard %02d", i), obs.Int("shard", int64(i)))
	in := feed.Reader(i, nil)
	var err error
	if sh.rset, err = extsort.GenerateRunsBatch(in, fs, scfg, ops); err == nil {
		// A resumed shard whose manifest was already committed adopts its
		// runs without reading a record, but the partition loop still routes
		// the shard's share of the input to it: unread, the feed fills and
		// blocks the loop, and with it every other shard. Generation
		// otherwise ends at the feed's EOF, so this returns at once.
		if _, err = stream.Discard[T](in, math.MaxInt64, nil); err != nil {
			err = sh.rset.Abandon(err)
		} else {
			sh.st, err = sh.rset.OpenMerged()
		}
	}
	if err != nil {
		feed.Stop(fmt.Errorf("distsort: shard %d: %w", i, err))
	}
}

// finish waits for the shard, copies its merge stream into dst through cat
// unless the sort has already failed, and closes the stream, which deletes
// the shard's run files and, when durable, its manifest. It returns the
// shard's two-phase statistics.
func (sh *shard[T]) finish(dst stream.Writer[T], feed *stream.Feed[T], cancel func() error, cat *joined[T]) (extsort.Stats, error) {
	<-sh.done
	err := feed.Err()
	if err == nil {
		cat.sh, cat.start = sh, cat.out
		_, err = stream.CopyCancel[T](dst, cat, cancel)
	}
	if sh.st != nil {
		if cerr := sh.st.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		sh.sp.Drop()
		return extsort.Stats{}, err
	}
	st := sh.rset.Stats()
	sh.sp.End(obs.Int("records", st.Records), obs.Int("runs", int64(st.Runs)))
	return st, nil
}

// joined reads the shards' merge streams in turn, sh's now, counting what it
// delivers into the progress reporter. Each stream checks its own order;
// joined holds each shard's first element against the last one before it —
// one comparator call per boundary — and fails with runio.ErrOutOfOrder.
type joined[T any] struct {
	sh         *shard[T]
	less       func(a, b T) bool
	rep        *obs.Reporter
	last       T     // the last element delivered
	out, start int64 // elements delivered in all, and before sh's first
}

func (j *joined[T]) ReadBatch(dst []T) (int, error) {
	n, err := j.sh.st.ReadBatch(dst)
	if n > 0 {
		if j.out == j.start && j.out > 0 && j.less(dst[0], j.last) {
			return 0, fmt.Errorf("%w: a shard begins with %v, below %v, where the shard before it ends", runio.ErrOutOfOrder, dst[0], j.last)
		}
		j.last, j.out = dst[n-1], j.out+int64(n)
		j.rep.Add(int64(n))
	}
	return n, j.sh.rset.ExplainOrder(err)
}

// partition routes the sampled prefix, in its original input order, then
// the rest of src: every element to exactly one shard, dealt to it in blocks
// of feedBatch. The caller closes the feed.
func partition[T any](sample []T, src stream.BatchReader[T], feed *stream.Feed[T], rt *router[T], cancel func() error, rep *obs.Reporter) ([]int64, error) {
	counts := make([]int64, rt.shards)
	pend := make([][]T, rt.shards) // per shard, the block being filled, taken on first use
	in, batch := stream.Prepend(sample, src), make([]T, 0, feedBatch)
	for ended := false; !ended; {
		var err error
		if batch, ended, err = stream.ReadPrefix(in, batch[:0], feedBatch, cancel); err != nil {
			return counts, err
		}
		for _, v := range batch {
			i := rt.route(v)
			if pend[i] == nil {
				if pend[i], err = feed.Block(i); err != nil {
					return counts, err
				}
			}
			counts[i]++
			if pend[i] = append(pend[i], v); len(pend[i]) == feedBatch {
				feed.Deal(i, pend[i])
				pend[i] = nil
			}
		}
		rep.Add(int64(len(batch)))
	}
	for i, blk := range pend {
		if blk != nil {
			feed.Deal(i, blk)
		}
	}
	return counts, nil
}

// addIO accumulates one shard's I/O accounting into the aggregate.
func addIO(dst *extsort.IOStats, s extsort.IOStats) {
	dst.BlocksWritten += s.BlocksWritten
	dst.BlocksRead += s.BlocksRead
	dst.RawBytesWritten += s.RawBytesWritten
	dst.StoredBytesWritten += s.StoredBytesWritten
	dst.RawBytesRead += s.RawBytesRead
	dst.StoredBytesRead += s.StoredBytesRead
	dst.VerifyFailures += s.VerifyFailures
}
