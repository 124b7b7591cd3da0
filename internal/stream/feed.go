package stream

import (
	"io"
	"sync"
	"time"
)

// Feed is the one way a sort hands elements from one goroutine to another:
// DealFrom deals the blocks of a source to a fixed set of consumers, each
// reading its own blocks in order through a FeedReader, and the feed latches
// the first failure of any party. Every consumer owns depth blocks, recycled
// between the dealer and its reader, so the elements in flight to it are
// bounded and no block is allocated after NewFeed. Anyone reports a failure
// with Stop; Release hands the blocks back once no party uses the feed.
type Feed[T any] struct {
	once     sync.Once
	done     chan struct{} // closed by the first Stop
	err      error         // the first failure, set before done closes
	blockLen int
	blocks   [][]T      // every block, for Release
	full     []chan []T // per consumer: blocks dealt and not yet read
	free     []chan []T // per consumer: blocks read, back to the dealer
}

// NewFeed returns a feed to consumers readers of depth blocks of blockLen
// elements each, taken from alloc (nil means make).
func NewFeed[T any](consumers, depth, blockLen int, alloc func(n int) []T) *Feed[T] {
	if alloc == nil {
		alloc = func(n int) []T { return make([]T, 0, n) }
	}
	f := &Feed[T]{done: make(chan struct{}), blockLen: blockLen, blocks: make([][]T, 0, consumers*depth),
		full: make([]chan []T, consumers), free: make([]chan []T, consumers)}
	for i := range consumers {
		f.full[i], f.free[i] = make(chan []T, depth), make(chan []T, depth)
		for range depth {
			f.blocks = append(f.blocks, alloc(blockLen))
			f.free[i] <- f.blocks[len(f.blocks)-1]
		}
	}
	return f
}

// DealFrom deals src to the consumers in turn, one block each, filling every
// block with ReadBatch calls straight into it, until src ends, src fails or
// the feed stops. At the end of src the consumers read io.EOF after their
// blocks. On a failure of src it deals the elements read before it, then
// stops the feed with the failure, so no reader takes its cut-off input for
// the end of the stream.
func (f *Feed[T]) DealFrom(src BatchReader[T]) {
	defer f.close()
	for i := 0; ; i = (i + 1) % len(f.full) {
		blk := f.block(i)
		if blk == nil {
			return
		}
		var err error
		for len(blk) < f.blockLen && err == nil {
			var k int
			k, err = src.ReadBatch(blk[len(blk):f.blockLen])
			if blk = blk[:len(blk)+k]; k == 0 && err == nil {
				err = io.EOF
			}
		}
		f.deal(i, blk)
		if err != nil {
			if err != io.EOF {
				f.Stop(err)
			}
			return
		}
	}
}

// block returns an empty block for consumer i, waiting while all of i's
// blocks are dealt and unread, or nil once the feed has stopped.
func (f *Feed[T]) block(i int) []T {
	if f.Err() != nil {
		return nil
	}
	select {
	case blk := <-f.free[i]:
		return blk[:0]
	case <-f.done:
		return nil
	}
}

// deal hands consumer i blk, a block block(i) returned. An empty one, or one
// filled after the feed stopped, goes straight back. It never waits: i's
// queues hold every block it owns.
func (f *Feed[T]) deal(i int, blk []T) {
	if len(blk) == 0 || f.Err() != nil {
		f.free[i] <- blk
		return
	}
	f.full[i] <- blk
}

// close ends every consumer's input after the blocks dealt to it.
func (f *Feed[T]) close() {
	for _, c := range f.full {
		close(c)
	}
}

// Stop latches err as the feed's failure if it is the first, releasing the
// dealer and every reader waiting on the feed.
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

// Release hands every block of the feed to put. The caller calls it once no
// party uses the feed: DealFrom has returned and no reader reads again.
func (f *Feed[T]) Release(put func([]T)) {
	for _, blk := range f.blocks {
		put(blk[:0])
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
// io.EOF once the dealer's source ends. Once it sees the feed stopped, it
// serves the blocks already queued to it, then the feed's failure.
type FeedReader[T any] struct {
	f     *Feed[T]
	i     int
	token chan struct{}
	blk   []T   // the block being read
	off   int   // elements of blk already served
	n     int64 // elements served
	// Blocks counts the blocks the reader took and Waited the time it
	// waited for one, getting its token back included.
	Blocks int
	Waited time.Duration
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

// next gives the block read back to the dealer — never waiting, as the free
// queue holds every block the consumer owns — and takes the next one.
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
		start := time.Now()
		if r.token != nil {
			<-r.token
		}
		select {
		case r.blk, ok = <-full:
		case <-r.f.done:
			select { // the blocks already queued are still read
			case r.blk, ok = <-full:
			default:
			}
		}
		if r.token != nil {
			r.token <- struct{}{}
		}
		r.Waited += time.Since(start)
	}
	if ok {
		r.Blocks++
		return nil
	}
	if err := r.f.Err(); err != nil {
		return err
	}
	return io.EOF
}
