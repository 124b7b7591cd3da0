package merge

import (
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/stream"
)

// pipe is the final merge above one worker (DESIGN.md §4, "The final merge
// beside its consumer"): the one streaming tree runs on a producer
// goroutine into two chunks borrowed from the scratch, and ReadBatch copies
// out of them, so the consumer — the Stream's checks and the caller's sink —
// drains one chunk while the tree merges the next. The tree is the one a
// single worker streams, and its order does not depend on how its output is
// cut into batches, so the merged order is the same at every Workers
// setting. The producer runs ahead of the consumer by at most one chunk.
type pipe[T any] struct {
	tree    *LoserTree[T]
	chunk   [2][]T
	scratch *codec.Scratch[T]
	// The producer hands each merged chunk over on ready, and stops when
	// stop closes; done closes once it has.
	ready      chan delivery
	stop, done chan struct{}

	// The consumer's side: the undelivered rest of the current chunk, the
	// error that follows it, the chunks taken and the time spent waiting
	// for an unfinished one.
	cur    []T
	err    error
	chunks int
	wait   time.Duration
	closed bool
}

// delivery is one chunk of output: n elements of chunk[c], then err.
type delivery struct {
	c, n int
	err  error
}

// newPipe starts the producer of tree over two chunks of size elements.
func newPipe[T any](tree *LoserTree[T], size int, sc *codec.Scratch[T]) *pipe[T] {
	p := &pipe[T]{tree: tree, scratch: sc, ready: make(chan delivery), stop: make(chan struct{}), done: make(chan struct{})}
	for c := range p.chunk {
		p.chunk[c] = sc.Buffer(size)[:size]
	}
	go p.produce()
	return p
}

// produce is the producer's loop. It merges into the free chunk and hands
// it over; the send returns once the consumer has drained the chunk before
// it, which is then free. It ends after handing over the end of the merge
// or a failure, or when Close stops it.
func (p *pipe[T]) produce() {
	defer close(p.done)
	for c := 0; ; c ^= 1 {
		d := delivery{c: c}
		for d.n < len(p.chunk[c]) && d.err == nil {
			var n int
			n, d.err = p.tree.ReadBatch(p.chunk[c][d.n:])
			d.n += n
		}
		select {
		case p.ready <- d:
		case <-p.stop:
			return
		}
		if d.err != nil {
			return
		}
	}
}

// ReadBatch copies the next elements of the merged order into dst, waiting
// for the producer's next chunk when the current one is drained. A failure
// follows the elements merged before it.
func (p *pipe[T]) ReadBatch(dst []T) (int, error) {
	if p.closed {
		return 0, stream.ErrClosed
	}
	for len(p.cur) == 0 && len(dst) > 0 {
		if p.err != nil {
			return 0, p.err
		}
		var d delivery
		select {
		case d = <-p.ready:
		default:
			start := time.Now()
			d = <-p.ready
			p.wait += time.Since(start)
		}
		p.cur, p.err = p.chunk[d.c][:d.n], d.err
		p.chunks++
	}
	n := copy(dst, p.cur)
	p.cur = p.cur[n:]
	return n, nil
}

// Close stops the producer, waits for it, gives the chunks back to the
// scratch and closes the tree.
func (p *pipe[T]) Close() error {
	if p.closed {
		return stream.ErrClosed
	}
	p.closed = true
	close(p.stop)
	<-p.done
	p.scratch.Put(p.chunk[0][:0])
	p.scratch.Put(p.chunk[1][:0])
	return p.tree.Close()
}

// attrs describes the merge for its span, once closed: the chunks the
// consumer took and its wait for unfinished ones.
func (p *pipe[T]) attrs() []obs.Attr {
	return []obs.Attr{obs.Bool("pipelined", true), obs.Int("chunks", int64(p.chunks)), obs.Int("wait_us", p.wait.Microseconds())}
}
