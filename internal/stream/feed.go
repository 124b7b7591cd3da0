package stream

import (
	"io"
	"sync"
)

// Feed deals blocks of elements from one producer to a fixed set of
// consumers, each reading its own blocks in order through a FeedReader, and
// latches the first failure of any party. Every consumer owns depth blocks,
// recycled between the producer and its reader, so the elements in flight
// to it are bounded and no block is allocated after NewFeed. The producer
// takes a consumer's next empty block with Block, fills it, hands it over
// with Deal and calls Close when done; anyone reports a failure with Stop.
type Feed[T any] struct {
	once    sync.Once
	done    chan struct{} // closed by the first Stop
	err     error         // the first failure, set before done closes
	stopped error         // what a reader reports after a stop
	full    []chan []T    // per consumer: blocks dealt and not yet read
	free    []chan []T    // per consumer: blocks read, back to the producer
}

// NewFeed returns a feed to consumers readers of depth blocks of blockLen
// elements each. stopped is what a reader reports once the feed has
// stopped: the failure itself is reported by whoever latched it.
func NewFeed[T any](consumers, depth, blockLen int, stopped error) *Feed[T] {
	f := &Feed[T]{done: make(chan struct{}), stopped: stopped, full: make([]chan []T, consumers), free: make([]chan []T, consumers)}
	for i := range consumers {
		f.full[i], f.free[i] = make(chan []T, depth), make(chan []T, depth)
		for range depth {
			f.free[i] <- make([]T, 0, blockLen)
		}
	}
	return f
}

// Block returns an empty block for consumer i, waiting while all of i's
// blocks are dealt and unread, or the failure once the feed has stopped.
func (f *Feed[T]) Block(i int) ([]T, error) {
	if err := f.Err(); err != nil {
		return nil, err
	}
	select {
	case blk := <-f.free[i]:
		return blk[:0], nil
	case <-f.done:
		return nil, f.err
	}
}

// Deal hands consumer i blk, a block Block(i) returned; an empty one goes
// straight back. It never waits: i's queues hold every block it owns.
func (f *Feed[T]) Deal(i int, blk []T) {
	if len(blk) == 0 {
		f.free[i] <- blk
		return
	}
	f.full[i] <- blk
}

// Close ends every consumer's input after the blocks dealt to it. A producer
// that failed stops the feed first, so no reader takes its cut-off input for
// the end of the stream.
func (f *Feed[T]) Close() {
	for _, c := range f.full {
		close(c)
	}
}

// Stop latches err as the feed's failure if it is the first, releasing
// every Block and every reader waiting on the feed.
func (f *Feed[T]) Stop(err error) {
	f.once.Do(func() {
		f.err = err
		close(f.done)
	})
}

// Err returns the first failure, or nil while the feed has not stopped.
func (f *Feed[T]) Err() error {
	select {
	case <-f.done:
		return f.err
	default:
		return nil
	}
}

// Reader returns consumer i's input. token, when not nil, is a compute token
// the consumer holds — a value it sent into the channel — while it works:
// the reader gives it back while it waits for a block, so the tokens bound
// the consumers computing and none waits on another while holding one.
func (f *Feed[T]) Reader(i int, token chan struct{}) *FeedReader[T] {
	return &FeedReader[T]{f: f, i: i, token: token}
}

// FeedReader is one consumer's input: the blocks dealt to it, in order, then
// io.EOF once the feed closes. Once it sees the feed stopped, it serves the
// blocks already queued to it, then the feed's stopped error.
type FeedReader[T any] struct {
	f     *Feed[T]
	i     int
	token chan struct{}
	blk   []T   // the block being read
	off   int   // elements of blk already served
	n     int64 // elements served
}

// ReadBatch serves the current block, and the next one dealt once it is read.
func (r *FeedReader[T]) ReadBatch(dst []T) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	if r.off == len(r.blk) {
		if err := r.next(); err != nil {
			return 0, err
		}
	}
	k := copy(dst, r.blk[r.off:])
	r.off += k
	r.n += int64(k)
	return k, nil
}

// Served is how many elements the reader has served.
func (r *FeedReader[T]) Served() int64 { return r.n }

// next gives the block read back to the producer — never waiting, as the
// free queue holds every block the consumer owns — and takes the next one.
func (r *FeedReader[T]) next() error {
	full := r.f.full[r.i]
	if r.blk != nil {
		r.f.free[r.i] <- r.blk
		r.blk, r.off = nil, 0
	}
	var ok bool
	select {
	case r.blk, ok = <-full:
	default:
		if r.token != nil {
			<-r.token
			defer func() { r.token <- struct{}{} }()
		}
		select {
		case r.blk, ok = <-full:
		case <-r.f.done:
			select { // the blocks already queued are still read
			case r.blk, ok = <-full:
			default:
			}
		}
	}
	if !ok && r.f.Err() != nil {
		return r.f.stopped
	} else if !ok {
		return io.EOF
	}
	return nil
}
