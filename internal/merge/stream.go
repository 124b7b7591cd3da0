package merge

import (
	"fmt"
	"io"

	"repro/internal/obs"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
)

// Stream is a pull-driven view of a merge: the next elements of the globally
// sorted order on every ReadBatch, instead of a materialised output file. It
// is how the operator layer consumes a run set — Distinct, GroupBy and
// MergeJoin filter the stream on the fly, and TopK abandons it after k
// elements, skipping the I/O a full merge would have spent on the tail.
//
// A Stream is a stream.BatchReader and polls the merge Config.Cancel hook at
// batch boundaries, so a cancelled context surfaces mid-stream. Drained to its
// end it must have delivered exactly the records of the runs it merges, and
// fails with an error matching storage.ErrCorrupt when it has not; a Stream
// abandoned early checks nothing. It also holds each element it delivers to
// the comparator — the one order no run writer checks — and fails, with an
// error matching runio.ErrOutOfOrder, on the first element that orders
// below the one delivered before it. Close releases the open sources and
// deletes the remaining run files; it is safe (and required) to Close a
// Stream that was only partially drained.
type Stream[T any] struct {
	store  storage.Backend
	eng    Source[T]
	finals []runio.Run
	stats  Stats // the plan's; Delivered counts what ReadBatch delivered
	cancel func() error
	want   int64 // the record count of the final runs
	closed bool
	// less holds each element against last, the one delivered before; err
	// is the check's failure, returned ever after.
	less func(a, b T) bool
	last T
	err  error

	// Observability: the final-merge span (ended at Close), the progress
	// reporter and the sort's close hook. All nil when disabled.
	fspan   *obs.Span
	rep     *obs.Reporter
	onClose func(failed bool)
	// failed records that the consumer failed (Fail): Close then keeps the
	// final runs.
	failed bool
}

// NewStream plans the merge (planMerge) at the fan-in Config.fanIn resolves,
// executes the plan's intermediate operations — reducing the inputs to at
// most that many runs, on up to Workers workers, as many as the budget feeds
// — and returns the final merge as a Stream for the caller to drain. Merge
// is equivalent to NewStream followed by a copy into dst and Close.
//
// The returned Stream owns the remaining run files: they are deleted on
// Close whether or not the stream was fully drained. On error the files of
// the runs not yet consumed are left to the caller's file system cleanup,
// matching Merge's behaviour.
func NewStream[T any](em *runio.Emitter[T], inputs []runio.Run, cfg Config) (*Stream[T], error) {
	if cfg.FanIn < 0 || cfg.FanIn == 1 {
		return nil, fmt.Errorf("merge: fan-in must be 0 (derived) or at least 2, got %d", cfg.FanIn)
	}
	cfg, p := cfg.plan(inputs)
	st := &Stream[T]{
		store: em.Store, cancel: cfg.Cancel, stats: p.stats, rep: cfg.Progress, onClose: cfg.OnClose,
		less: em.Less,
	}
	if len(inputs) == 0 {
		return st, nil
	}
	cfg.Span.Annotate(obs.Int("ops", int64(p.stats.Merges)), obs.Int("passes", int64(p.stats.Passes)), obs.Int("moved", p.stats.RecordsMoved))
	storage.PoolOf(em.Store).Reserve(cfg.MemoryBytes)

	runs := make([]runio.Run, len(inputs)+len(p.ops))
	copy(runs, inputs)
	arenas := make([]leafArena[T], max(1, min(cfg.Workers, len(p.ops), cfg.fedWorkers(inputs))))
	if err := execute(em, p, runs, arenas, cfg); err != nil {
		return nil, err
	}
	for _, id := range p.finals {
		st.finals = append(st.finals, runs[id])
		st.want += runs[id].Records
	}
	var err error
	st.eng, err = openMerged(em, &arenas[0], st.finals, cfg.bufBytes(1, cfg.widest(st.finals, len(st.finals))), cfg)
	if err != nil {
		return nil, err
	}
	st.fspan = cfg.Span.Start("merge_final", obs.Int("width", int64(len(st.finals))))
	return st, nil
}

// Stats reports the merge statistics, read off the plan — the intermediate
// operations are complete by the time NewStream returns, and the final merge
// they count streams lazily — and the records delivered so far.
func (s *Stream[T]) Stats() Stats { return s.stats }

// ReadBatch fills dst per the stream.BatchReader contract, polling the
// cancellation hook once per batch.
func (s *Stream[T]) ReadBatch(dst []T) (int, error) {
	if s.closed {
		return 0, stream.ErrClosed
	}
	if s.err != nil {
		return 0, s.err
	}
	if s.eng == nil {
		return 0, io.EOF
	}
	if s.cancel != nil {
		if err := s.cancel(); err != nil {
			return 0, err
		}
	}
	n, err := s.eng.ReadBatch(dst)
	if n > 0 {
		if s.err = s.checkOrder(dst[:n]); s.err != nil {
			return 0, s.err
		}
		s.stats.Delivered += int64(n)
		s.rep.Add(int64(n))
	}
	if err == io.EOF && s.stats.Delivered != s.want {
		err = miscount(fmt.Sprintf("the final merge of %d runs", len(s.finals)), s.stats.Delivered, s.want)
	}
	return n, err
}

// checkOrder holds a batch about to be delivered to the comparator: each
// element against the one before it, the first against the last element
// delivered.
func (s *Stream[T]) checkOrder(batch []T) error {
	prev := s.last
	if s.stats.Delivered == 0 {
		prev = batch[0]
	}
	for _, v := range batch {
		if s.less(v, prev) {
			return fmt.Errorf("%w: the final merge delivered %v after %v", runio.ErrOutOfOrder, v, prev)
		}
		prev = v
	}
	s.last = prev
	return nil
}

// Fail records that the consumer of the stream failed — its sink refused a
// batch, its context ended, the stream itself returned an error — so that
// Close keeps the final run files for the owner of the runs to decide about
// (a durable sort resumes from them) and tells OnClose so.
func (s *Stream[T]) Fail() { s.failed = true }

// Close releases the merge engine's sources and deletes the final run
// files, unless the consumer failed (Fail). It must be called exactly once,
// drained or not.
func (s *Stream[T]) Close() error {
	if s.closed {
		return stream.ErrClosed
	}
	s.closed = true
	var first error
	if s.eng != nil {
		if err := s.eng.Close(); err != nil {
			first = err
		}
	}
	for _, r := range s.finals {
		if s.failed {
			break
		}
		if err := r.Remove(s.store); err != nil && first == nil {
			first = err
		}
	}
	s.fspan.End()
	if s.onClose != nil {
		s.onClose(s.failed)
	}
	return first
}
