package distsort

import (
	"errors"
	"io"
	"sync"
)

// errAborted is what a shard's feed reader returns once another part
// of the sharded sort has failed; the failure that caused the abort is
// what Sort reports.
var errAborted = errors.New("distsort: aborted by concurrent failure")

// failure is the sort-wide first-error latch. fail records the first
// error and closes done, which unblocks every feed send and receive so the
// partition loop and the shard goroutines unwind without deadlocking.
type failure struct {
	once sync.Once
	err  error
	done chan struct{}
}

func newFailure() *failure {
	return &failure{done: make(chan struct{})}
}

// fail latches the first error and releases everything blocked on done.
func (f *failure) fail(err error) {
	f.once.Do(func() {
		f.err = err
		close(f.done)
	})
}

// get returns the latched error, or nil when nothing failed.
func (f *failure) get() error {
	select {
	case <-f.done:
		return f.err
	default:
		return nil
	}
}

// chanReader adapts a shard's feed channel to the batch read protocol. The
// batches it receives are owned by the reader (the partition loop never
// reuses a sent slice).
type chanReader[T any] struct {
	ch   <-chan []T
	done <-chan struct{}
	cur  []T
	pos  int
}

// next blocks for the next non-empty batch, EOF on channel close, or the
// abort latch.
func (r *chanReader[T]) next() error {
	for {
		select {
		case b, ok := <-r.ch:
			if !ok {
				return io.EOF
			}
			if len(b) == 0 {
				continue
			}
			r.cur, r.pos = b, 0
			return nil
		case <-r.done:
			return errAborted
		}
	}
}

// ReadBatch yields as much of the current batch as fits in dst.
func (r *chanReader[T]) ReadBatch(dst []T) (int, error) {
	if r.pos >= len(r.cur) {
		if err := r.next(); err != nil {
			return 0, err
		}
	}
	n := copy(dst, r.cur[r.pos:])
	r.pos += n
	return n, nil
}

// discard drops whatever is left of the feed, returning nil once the
// partition loop has closed it.
func (r *chanReader[T]) discard() error {
	for {
		if err := r.next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}
