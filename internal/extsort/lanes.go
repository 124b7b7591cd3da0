package extsort

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/manifest"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// This file splits run generation into lanes: a budget of more than laneMax
// elements runs ⌈Memory/laneMax⌉ generators of the sort's policy side by
// side, each holding Memory/Lanes elements, over fixed blocks of the input
// dealt to them in turn (DESIGN.md §4). Every lane is a deterministic
// function of the input and the configuration, so its files are the same
// whichever lanes compute at once; Parallelism decides only how many do.

// laneMax is the most elements one run generator holds: a lane's heap of
// 2^15 16-byte records (1 MiB with its index) stays in one core's L2.
const laneMax = 1 << 15

// Lanes returns how many run generators a sort under c runs side by side:
// ⌈Memory/laneMax⌉, and 1 for a simulated sort, whose disk model is one
// sequential device with one generator in front of it.
func (c Config) Lanes() int {
	if c.Disk != nil || c.Memory <= laneMax {
		return 1
	}
	return (c.Memory + laneMax - 1) / laneMax
}

// laneBlocks is how many deal blocks circulate between the dealer and each
// lane: one the lane reads while the dealer fills the other.
const laneBlocks = 2

// dealLen is the length in records of the blocks the input is dealt to the
// lanes in: a lane's memory over 32, which at laneMax is 1,024 records, one
// fetch batch of its generator (stream.FetchLen). The blocks in flight hold
// a sixteenth of the budget beside it.
func (c Config) dealLen() int { return max(c.Memory/c.Lanes()/32, 1) }

// errLaneStopped is what a lane's input reports once another lane, or the
// dealer, has failed: the lane stops at its next block instead of finishing
// its runs over an input that ended early.
var errLaneStopped = errors.New("extsort: run generation stopped by a failure in another lane")

// lane is one run generator of a sort and what it has produced.
type lane[T any] struct {
	idx int
	em  *runio.Emitter[T]
	// in is the lane's input: the metered source itself for a sort with one
	// lane, its dealt blocks otherwise. pos counts the records it served,
	// which a durable boundary records as its input position.
	in  stream.BatchReader[T]
	pos func() int64
	// recovered lists the boundaries a resume recovered for this lane, in
	// order; replayed counts those regenerated so far.
	recovered []manifest.Run
	replayed  int
	res       policy.Result
}

// newLanes builds the lanes of a generation pass and hands each the
// boundaries a resume recovered for it. One lane is the run set's own
// emitter, so a sort within laneMax names and writes its files as it always
// has; more each write under a namer of their own.
func (r *RunSet[T]) newLanes(recovered []manifest.Run) ([]*lane[T], error) {
	n := r.cfg.Lanes()
	lanes := make([]*lane[T], n)
	for i := range lanes {
		em := r.em
		if n > 1 {
			em = r.em.Sibling(fmt.Sprintf("%s-l%d", r.cfg.Prefix, i))
		}
		lanes[i] = &lane[T]{idx: i, em: em}
	}
	for _, mr := range recovered {
		if mr.Lane < 0 || mr.Lane >= n {
			return nil, fmt.Errorf("%w: run %d names lane %d of a sort with %d", manifest.ErrCorrupt, mr.Seq, mr.Lane, n)
		}
		l := lanes[mr.Lane]
		l.recovered = append(l.recovered, mr)
	}
	for _, l := range lanes {
		if len(l.recovered) > 0 {
			// The replay writes nowhere until the lane's last recovered
			// boundary.
			l.em.Store = storage.NewRaw(vfs.Discard{})
			storage.PoolOf(l.em.Store).Reserve(storage.PoolOf(r.store).Budget())
		}
	}
	return lanes, nil
}

// replayedInput is how many input records the lanes read again to regenerate
// the recovered boundaries: the sum of each lane's last input position.
func replayedInput[T any](lanes []*lane[T]) int64 {
	var n int64
	for _, l := range lanes {
		if k := len(l.recovered); k > 0 {
			n += l.recovered[k-1].InputPos
		}
	}
	return n
}

// boundary is a lane's hook at every run boundary: a replayed run is checked
// against its recovered record, and once the lane has regenerated its last
// one it hands over to the sort's store (no stream is open at a boundary);
// a fresh run goes to the sequencer. Only a durable sort has boundaries.
func (r *RunSet[T]) boundary(l *lane[T], seq *sequencer, handover func()) func(policy.Driven, runio.Run) error {
	return func(gen policy.Driven, run runio.Run) error {
		mr := runRecord(gen.Kind(), run, l.pos(), l.em.Namer.Seq())
		mr.Lane = l.idx
		if l.replayed == len(l.recovered) {
			return seq.add(l.idx, mr)
		}
		if !sameRun(mr, l.recovered[l.replayed]) {
			return fmt.Errorf("%w: run %d regenerated from the input is not the run the manifest committed; the source must re-serve the original input", manifest.ErrChecksum, l.recovered[l.replayed].Seq)
		}
		if l.replayed++; l.replayed == len(l.recovered) {
			l.em.Store = r.store
			handover()
		}
		return nil
	}
}

// runLanes drives every lane to the end of its input and returns the runs in
// (lane-local index, lane) order, the order the sequencer commits them in.
// One lane runs on the caller's goroutine over in. More each run on a
// goroutine of their own, at most Parallelism computing at once, while the
// caller deals in to them through a stream.Feed: fixed blocks of dealLen
// records, sized from the configuration alone, block i to lane i mod Lanes.
// The first failure, in a lane or in the source, stops every lane; all have
// returned, and their streams are closed, when runLanes does.
func (r *RunSet[T]) runLanes(lanes []*lane[T], in *stream.Meter[T], seq *sequencer, gsp, rsp *obs.Span) ([]runio.Run, error) {
	cfg := r.cfg
	choice, src, err := policy.Decide(cfg.Policy, in, r.em, policy.Sizing{Memory: cfg.Memory, Lanes: len(lanes),
		Merge: merge.Config{FanIn: cfg.FanIn, MemoryBytes: cfg.Memory * r.ops.ElementBytes()}})
	if err != nil {
		return nil, err
	}
	// A resumed auto sort replays the generator its manifest names: the
	// decision read the input's length from the source, and the resuming
	// source need not report it.
	for _, l := range lanes {
		if len(l.recovered) > 0 {
			if choice.Kind, err = policy.Parse(l.recovered[0].Policy); err != nil {
				return nil, fmt.Errorf("%w: %w", manifest.ErrCorrupt, err)
			}
			break
		}
	}
	r.stats.Generator = choice.Kind.String()
	pcfg := policy.Config{Memory: cfg.Memory / len(lanes), TWRS: cfg.TWRS}
	replaying := atomic.Int32{}
	for _, l := range lanes {
		if len(l.recovered) > 0 {
			replaying.Add(1)
		}
	}
	handover := func() {
		if replaying.Add(-1) == 0 {
			rsp.End()
		}
	}
	drive := func(l *lane[T], span *obs.Span) error {
		pcfg := pcfg
		pcfg.Span = span
		var hook func(policy.Driven, runio.Run) error
		if seq != nil {
			hook = r.boundary(l, seq, handover)
		}
		gen, err := policy.Build(choice, l.in, l.em, pcfg, r.ops.Key)
		if err == nil {
			l.res, err = policy.Drive(gen, span, hook)
		}
		if err == nil {
			err = seq.finish(l.idx)
		}
		return err
	}

	if len(lanes) == 1 {
		l := lanes[0]
		l.in, l.pos = src, func() int64 { return in.N }
		if err := drive(l, gsp); err != nil {
			return nil, err
		}
		return l.res.Runs, nil
	}

	feed := stream.NewFeed[T](len(lanes), laneBlocks, cfg.dealLen(), errLaneStopped)
	sem := make(chan struct{}, cfg.Parallelism)
	var wg sync.WaitGroup
	for i, l := range lanes {
		lr := feed.Reader(i, sem)
		l.in, l.pos = lr, lr.Served
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			lsp := gsp.Start("lane", obs.Int("lane", int64(l.idx)))
			err := drive(l, lsp)
			lsp.End()
			if err != nil {
				feed.Stop(err)
			}
		}()
	}
	for i, ended := 0, false; !ended; i = (i + 1) % len(lanes) {
		blk, err := feed.Block(i)
		if err == nil {
			blk, ended, err = stream.ReadPrefix(src, blk, cfg.dealLen(), nil)
		}
		if err != nil {
			feed.Stop(err)
			break
		}
		feed.Deal(i, blk)
	}
	feed.Close()
	wg.Wait()
	if err := feed.Err(); err != nil {
		for _, l := range lanes {
			l.em.AbortOpen()
		}
		return nil, err
	}
	var runs []runio.Run
	for j := 0; ; j++ {
		k := len(runs)
		for _, l := range lanes {
			if j < len(l.res.Runs) {
				runs = append(runs, l.res.Runs[j])
			}
		}
		if len(runs) == k {
			return runs, nil
		}
	}
}

// sequencer commits the boundaries of a durable sort's lanes to its manifest
// in (lane-local index, lane) order, whichever lane reaches its boundary
// first: a lane's record waits until every lane before it has committed as
// many runs, or finished. A plain sort has none: finish on nil does nothing.
type sequencer struct {
	mu      sync.Mutex
	commit  func(manifest.Run) error
	pending [][]manifest.Run // per lane, records not yet committed
	count   []int            // per lane, records committed (or recovered)
	done    []bool           // per lane, finished
	err     error
}

// newSequencer returns the sequencer of lanes whose recovered boundaries the
// manifest already holds.
func newSequencer[T any](lanes []*lane[T], commit func(manifest.Run) error) *sequencer {
	s := &sequencer{commit: commit, pending: make([][]manifest.Run, len(lanes)), count: make([]int, len(lanes)), done: make([]bool, len(lanes))}
	for i, l := range lanes {
		s.count[i] = len(l.recovered)
	}
	return s
}

// add queues lane's next record and commits what is due.
func (s *sequencer) add(lane int, mr manifest.Run) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending[lane] = append(s.pending[lane], mr)
	return s.flush()
}

// finish marks lane done and commits what is due; once every lane has
// finished, every record has been committed.
func (s *sequencer) finish(lane int) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done[lane] = true
	return s.flush()
}

// flush commits records while the next in order — the lane with the fewest
// commits, the lowest of those, that has not finished them all — is queued.
func (s *sequencer) flush() error {
	for s.err == nil {
		next := -1
		for i := range s.count {
			if s.done[i] && len(s.pending[i]) == 0 {
				continue
			}
			if next < 0 || s.count[i] < s.count[next] {
				next = i
			}
		}
		if next < 0 || len(s.pending[next]) == 0 {
			break
		}
		q := s.pending[next]
		mr := q[0]
		s.pending[next] = q[:copy(q, q[1:])]
		s.count[next]++
		s.err = s.commit(mr)
	}
	return s.err
}
