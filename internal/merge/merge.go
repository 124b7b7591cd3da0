package merge

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
)

// Config parameterises the merge phase.
type Config struct {
	// FanIn is the number of inputs merged simultaneously (thesis optimum:
	// 10, §6.1.1). Zero derives it from MemoryBytes and the runs merged
	// (fanIn).
	FanIn int
	// MemoryBytes is the buffer memory available to the merge phase; it is
	// divided evenly among the blocks the concurrent merge operations hold:
	// under a derived fan-in one per piece of every input run (an overlap
	// run opens as up to four), under a set one one per input run, which
	// the run's pieces split again — and one for the output writer (see
	// bufBytes).
	MemoryBytes int
	// Workers bounds how many intermediate merges run at once. It decides
	// when an operation of the merge plan runs, never which runs it merges:
	// ≤1 executes the plan in order on the caller's goroutine; above 1,
	// operations whose inputs are complete overlap, each worker creating,
	// writing and closing its output on its own goroutine. No more run at
	// once than MemoryBytes feeds (fedWorkers). Above 1 the final merge's tree,
	// too, runs on a goroutine of its own, beside the Stream's consumer
	// (pipe.go); at 1 it streams on the consumer's. The merged order is the
	// same at every setting.
	Workers int
	// Cancel, when set, is polled between batches of every merge operation;
	// a non-nil return aborts the merge with that error. The driver wires
	// it to ctx.Err so cancellation fires promptly mid-merge.
	Cancel func() error
	// Span, when non-nil, is the enclosing "merge" trace span: every merge
	// operation records a "merge_op" child under it and the final merge a
	// "merge_final" child that ends when the Stream closes. Workers > 1 is
	// safe — spans may end from any goroutine.
	Span *obs.Span
	// Progress, when non-nil, is advanced by every output batch of the
	// final merge.
	Progress *obs.Reporter
	// OnClose, when non-nil, runs once, when the merge Stream closes, and
	// is told whether its consumer failed (Stream.Fail): extsort ends its
	// merge phase there and, after a success, removes a durable manifest.
	OnClose func(failed bool)

	// perPiece records that the fan-in was derived: blocks are then sized
	// per piece, not per run (units). A set fan-in keeps a block per run:
	// sized per piece, the simulated sorts' overlap runs would read in
	// other request sizes and EXPERIMENTS.md would move (DESIGN.md §4).
	perPiece bool
}

// DefaultFanIn is the merge fan-in the thesis finds optimal (Fig 6.1), and
// the narrowest a derived fan-in merges at.
const DefaultFanIn = 10

// BaseFanIn is the width a zero FanIn merges at on a budget of memoryBytes
// when the runs are too many for one pass: the widest merge the budget feeds
// at a 16 KiB block per input beside the output's — four pages, so an
// overlap run's share still gives each of its at most four pieces one
// (DESIGN.md §4 has the sweep behind it) — and never below DefaultFanIn.
func BaseFanIn(memoryBytes int) int {
	return max(DefaultFanIn, memoryBytes/(16<<10)-1)
}

// fanIn returns the width the merge of inputs plans at: FanIn when set, and
// for a zero FanIn all of the inputs when the budget feeds every piece of
// them a page at that width (fedWorkers), BaseFanIn otherwise — never a
// function of Workers, nor of anything a resume could change.
func (c Config) fanIn(inputs []runio.Run) int {
	pieces := 0
	for _, r := range inputs {
		pieces += r.Pieces()
	}
	return c.width(len(inputs), pieces)
}

// width is fanIn on counts: the width a merge of runs runs of pieces pieces
// in all plans at. All of them when the budget feeds each piece a page
// beside the output's — what fedWorkers grants one operation of that width
// under a derived fan-in — and the base width otherwise.
func (c Config) width(runs, pieces int) int {
	if c.FanIn != 0 {
		return c.FanIn
	}
	if base := BaseFanIn(c.MemoryBytes); runs <= base || c.MemoryBytes < (pieces+1)*runio.DefaultPageSize {
		return base
	}
	return runs
}

// plan resolves the fan-in the merge of inputs runs at and plans it there:
// what NewStream executes, and what Passes predicts from.
func (c Config) plan(inputs []runio.Run) (Config, plan) {
	c.perPiece = c.FanIn == 0
	c.FanIn = c.fanIn(inputs)
	sizes := make([]int64, len(inputs))
	for i, r := range inputs {
		sizes[i] = r.Records
	}
	return c, planMerge(sizes, c.FanIn)
}

// Passes predicts how many passes NewStream under c takes to merge runs
// equal runs of one piece each: the depth of the plan it would make for
// them, from the counts alone. Smallest-first merging of equal runs at
// width F builds the shallowest F-ary tree over them, ⌈log_F runs⌉ deep.
// It is how run generation prices the merge its runs will need
// (internal/policy).
func (c Config) Passes(runs int) int {
	f, passes := c.width(runs, runs), 0
	for reach := 1; reach < runs; reach *= f {
		passes++
	}
	return passes
}

// units is how many blocks run r reads through: one per piece under a
// derived fan-in, so an overlap run (up to four pieces) costs its own pieces
// and no more; one under a set fan-in, which the run's pieces split.
func (c Config) units(r runio.Run) int {
	if c.perPiece {
		return r.Pieces()
	}
	return 1
}

// widest returns the most blocks a merge of width inputs reads through:
// the width largest units among them (intermediate outputs have one).
func (c Config) widest(inputs []runio.Run, width int) int {
	n := make([]int, len(inputs))
	for i, r := range inputs {
		n[i] = c.units(r)
	}
	slices.Sort(n)
	total := 0
	for _, u := range n[max(0, len(n)-width):] {
		total += u
	}
	return total
}

// bufBytes returns the block size when workers operations run at once,
// each reading through units blocks. MemoryBytes is a budget for the whole
// phase: the workers share it, and each one's part is split evenly across
// the blocks its operation holds at once — its inputs' and the one its
// writer is filling — floored at one file system page: no real device
// transfers less than a page per request. Concurrent operations all get the
// blocks of the widest full-width one, the narrow first one too, so no
// operation's blocks depend on which others share the workers with it. The
// final merge has no writer of its own, and its spare share is what the
// output batch costs.
func (c Config) bufBytes(workers, units int) int {
	return max(c.MemoryBytes/workers/(units+1), runio.DefaultPageSize)
}

// fedWorkers returns how many full-width operations MemoryBytes feeds at
// once without a block going under its floor: each holds its inputs'
// blocks and its output's, and a set fan-in's block may be split among as
// many pieces as the most divided input has. At 0 one operation still
// runs, its blocks on the page floor.
func (c Config) fedWorkers(inputs []runio.Run) int {
	split := 1
	for _, r := range inputs {
		split = max(split, r.Pieces()/c.units(r))
	}
	return c.MemoryBytes / ((c.widest(inputs, c.FanIn) + 1) * split * runio.DefaultPageSize)
}

// Stats reports what the merge phase did.
type Stats struct {
	// Passes is the depth of the merge tree: the maximum number of merge
	// operations any record flowed through (0 when the input was a single
	// run already).
	Passes int
	// Merges is the number of k-way merge operations performed.
	Merges int
	// RecordsMoved counts records read+written through intermediate runs,
	// excluding the final pass to the destination.
	RecordsMoved int64
	// Inputs is the initial number of merge inputs.
	Inputs int
	// FanIn is the width the plan was made at: every operation's, except
	// the first one's (Width).
	FanIn int
	// Delivered counts the records the final merge has delivered so far:
	// all of them once a Stream is drained, fewer when it was abandoned.
	Delivered int64
}

// Width returns the width of operation i of the Merges in plan order, the
// final merge's last: FanIn, except the first, which takes the runs that
// leave every later one full (planMerge) — all of them when they number no
// more than FanIn.
func (s Stats) Width(i int) int {
	if i == 0 {
		return (s.Inputs-2)%(s.FanIn-1) + 2
	}
	return s.FanIn
}

// openMerged opens the runs as one sorted source, each within its blocks
// of block bytes (Config.units). A run opens as its sorted pieces
// (runio.OpenRun) — one, or one per segment when its stream ranges
// overlap — and every piece of every run is a leaf of one loser tree,
// laid out in the arena and shaped by the emitter's KeyCodec (tree.go), so an
// overlap run is merged by the operation's own tree, on keys like any other
// leaf. A single piece is its own source. A run that cannot be opened, or a
// piece that fails while the tree primes it, closes every piece opened.
func openMerged[T any](em *runio.Emitter[T], a *leafArena[T], runs []runio.Run, block int, cfg Config) (Source[T], error) {
	srcs := make([]Source[T], 0, len(runs))
	for _, r := range runs {
		pieces, err := em.Open(r, block*cfg.units(r))
		if err != nil {
			for _, s := range srcs {
				s.Close()
			}
			return nil, err
		}
		for _, piece := range pieces {
			srcs = append(srcs, piece)
		}
	}
	if len(srcs) == 1 {
		return srcs[0], nil
	}
	return newTreeIn(a, srcs, em.Less, em.KeyCodec)
}

// miscount is the error of a merge that delivered another number of records
// than the runs it read hold: corruption no piece caught, never a shorter
// output.
func miscount(what string, got, want int64) error {
	return fmt.Errorf("%w: merge: %s ended after %d records, its inputs hold %d", storage.ErrCorrupt, what, got, want)
}

// op is one intermediate merge of a plan. A plan numbers its runs: 0..n-1
// are the inputs in the caller's order, n+i is the output of ops[i].
type op struct {
	inputs  []int // the runs merged, in merge order
	records int64 // the output's record count: the sum of its inputs'
	depth   int   // merge operations on the longest path into the output
}

// plan is the whole merge tree, written down before the first byte moves:
// the intermediate operations in the order one worker executes them —
// every operation after the ones that produce its inputs — the runs the
// final merge reads, and the statistics of executing all of it.
type plan struct {
	ops    []op
	finals []int
	stats  Stats
}

// planMerge schedules repeated fanIn-way merges smallest-first — the optimal
// merge pattern (Knuth vol. 3 §5.4.9): merging the smallest runs first
// minimises the total volume moved through intermediate files, which matters
// for 2WRS because its victim streams are tiny compared to the heap streams.
// The first operation takes ((n-2) mod (fanIn-1)) + 2 runs — the textbook's
// ((n-1) mod (fanIn-1)) + 1, a full fanIn where that is 1 — so that every
// later one is full-width, ties keep the caller's order, and every output
// competes on size with the runs that remain, entering the queue after the
// runs of its own size. A merge's output has exactly its inputs' records, so
// the plan is a function of the run sizes and the fan-in alone: it does no
// I/O and is the same at every Workers setting.
func planMerge(sizes []int64, fanIn int) plan {
	type node struct {
		id, depth int
		records   int64
	}
	n := len(sizes)
	queue := make([]node, n)
	for i, s := range sizes {
		queue[i] = node{id: i, records: s}
	}
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].records < queue[j].records })
	p := plan{stats: Stats{Inputs: n, FanIn: fanIn}}
	for width := p.stats.Width(0); len(queue) > fanIn; width = fanIn {
		out := node{id: n + len(p.ops), depth: 1}
		inputs := make([]int, width)
		for i, in := range queue[:width] {
			inputs[i] = in.id
			out.records += in.records
			out.depth = max(out.depth, in.depth+1)
		}
		p.ops = append(p.ops, op{inputs: inputs, records: out.records, depth: out.depth})
		p.stats.RecordsMoved += out.records
		// The queue is sorted; the output goes after the runs of its own size,
		// where re-sorting the queue stably would leave it.
		queue = queue[width:]
		at := sort.Search(len(queue), func(i int) bool { return queue[i].records > out.records })
		queue = slices.Insert(queue, at, out)
	}
	for _, f := range queue {
		p.finals = append(p.finals, f.id)
		p.stats.Passes = max(p.stats.Passes, f.depth)
	}
	p.stats.Merges = len(p.ops)
	if len(p.finals) > 1 {
		p.stats.Merges++
		p.stats.Passes++
	}
	return p
}

// Merge combines the given sorted inputs into dst by the plan of planMerge:
// repeated FanIn-way merges, smallest runs first. Intermediate runs are
// deleted as soon as they are consumed; the final merge streams directly to
// dst.
//
// The merge tree, the files written and Stats are the same at every Workers
// setting, which decides only when an operation runs (see Config.Workers).
//
// Each input is one run of the plan however it opens: a 2WRS run with
// overlapping stream ranges opens as a leaf per segment of the operation that
// reads it (openMerged), so callers pass runs as-is and the fan-in counts
// runs, not leaves. The element codec and comparator come from em.
//
// Merge is NewStream followed by a batched copy into dst: callers that want
// the merged order as a pull stream instead of a materialised output use
// NewStream directly. Run files are read and removed through em's storage
// backend.
func Merge[T any](em *runio.Emitter[T], inputs []runio.Run, dst stream.Writer[T], cfg Config) (Stats, error) {
	st, err := NewStream(em, inputs, cfg)
	if err != nil {
		return Stats{Inputs: len(inputs)}, err
	}
	if _, err := stream.CopyCancel(stream.AsBatchWriter(dst), st, cfg.Cancel); err != nil {
		st.Close()
		return st.Stats(), err
	}
	return st.Stats(), st.Close()
}

// execute runs the plan's operations on one worker per arena and leaves the
// outputs in runs, which holds the plan's inputs and a slot per operation
// under the plan's numbering. A worker owns its arena, writes its outputs
// on its own goroutine, and takes the earliest unclaimed operation whose
// inputs are complete: one worker is the plan in order, on the caller's
// goroutine; several overlap whatever is ready, with no barrier between the
// levels of the tree. execute returns the first failure or
// cancellation: nothing is claimed after it, so no operation that depends
// on a failed one ever starts.
func execute[T any](em *runio.Emitter[T], p plan, runs []runio.Run, arenas []leafArena[T], cfg Config) error {
	n := len(runs) - len(p.ops)
	// Names are taken in plan order, whichever worker gets to use them.
	names := make([]string, len(p.ops))
	for i := range names {
		names[i] = em.Namer.Next("merge")
	}
	// Beside other operations each gets the blocks of the widest.
	wide := cfg.widest(runs[:n], cfg.FanIn)
	const unclaimed, running, complete = 0, 1, 2
	var (
		mu       sync.Mutex // guards what follows, and the outputs in runs
		changed  = sync.NewCond(&mu)
		state    = make([]uint8, len(p.ops))
		next     int // the earliest unclaimed operation
		firstErr error
	)
	ready := func(i int) bool {
		for _, in := range p.ops[i].inputs {
			if in >= n && state[in-n] != complete {
				return false
			}
		}
		return true
	}
	work := func(a *leafArena[T]) {
		mu.Lock()
		defer mu.Unlock()
		for firstErr == nil && next < len(p.ops) {
			i := next
			for i < len(p.ops) && (state[i] != unclaimed || !ready(i)) {
				i++
			}
			if i == len(p.ops) {
				// An operation is running — the earliest unclaimed one reads
				// only earlier outputs — and its end wakes the wait.
				changed.Wait()
				continue
			}
			state[i] = running
			for next < len(p.ops) && state[next] != unclaimed {
				next++
			}
			group := make([]runio.Run, len(p.ops[i].inputs))
			for j, in := range p.ops[i].inputs {
				group[j] = runs[in]
			}
			mu.Unlock()
			units := wide
			if len(arenas) == 1 {
				units = 0
				for _, r := range group {
					units += cfg.units(r)
				}
			}
			out, err := mergeOp(em, a, group, names[i], p.ops[i], cfg.bufBytes(len(arenas), units), cfg)
			mu.Lock()
			if err == nil {
				runs[n+i], state[i] = out, complete
			} else if firstErr == nil {
				firstErr = err
			}
			changed.Broadcast()
		}
	}
	if len(arenas) == 1 {
		work(&arenas[0])
		return firstErr
	}
	var wg sync.WaitGroup
	for i := range arenas {
		wg.Add(1)
		go func(a *leafArena[T]) {
			defer wg.Done()
			work(a)
		}(&arenas[i])
	}
	wg.Wait()
	return firstErr
}

// mergeOp performs one operation: it merges the group into a fresh run under
// the given pre-allocated name and deletes the consumed inputs, recording one
// "merge_op" span. a is the calling worker's arena; the output is closed, and
// so whole, when mergeOp returns, error or not. An output that does not hold
// exactly the records of its inputs (o.records) is an error matching
// storage.ErrCorrupt.
func mergeOp[T any](em *runio.Emitter[T], a *leafArena[T], group []runio.Run, name string, o op, bufBytes int, cfg Config) (out runio.Run, err error) {
	if cfg.Cancel != nil {
		if err := cfg.Cancel(); err != nil {
			return runio.Run{}, err
		}
	}
	sp := cfg.Span.Start("merge_op", obs.Int("width", int64(len(group))), obs.Int("depth", int64(o.depth)))
	defer func() {
		if err != nil {
			sp.End(obs.Str("error", err.Error()))
			return
		}
		sp.End(obs.Int("records", out.Records))
	}()
	eng, err := openMerged(em, a, group, bufBytes, cfg)
	if err != nil {
		return runio.Run{}, err
	}
	wr, err := em.NewWriter(name, bufBytes)
	if err != nil {
		eng.Close()
		return runio.Run{}, err
	}
	batch := borrow(&a.batch, stream.DefaultBatchLen, a.sc.Buffer, a.sc.Put)
	moved, err := stream.CopyBuffer[T](wr, eng, batch, cfg.Cancel)
	if err == nil && moved != o.records {
		err = miscount(name, moved, o.records)
	}
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if cerr := wr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return runio.Run{}, err
	}
	// Last input first: a spill arena's LIFO free list then hands the next
	// writer the first input's extents first, in the order they were written,
	// so its file comes out as few contiguous stretches as the inputs were.
	for i := len(group) - 1; i >= 0; i-- {
		if err := group[i].Remove(em.Store); err != nil {
			return runio.Run{}, err
		}
	}
	return runio.SingleRun(wr.Segment()), nil
}
