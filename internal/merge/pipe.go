package merge

import (
	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/stream"
)

// pipe is the final merge above one worker (DESIGN.md §4, "The final merge
// beside its consumer"): a producer goroutine deals the one streaming tree
// to a one-consumer stream.Feed over two chunks borrowed from the scratch,
// and the consumer — the Stream's checks and the caller's sink — reads the
// feed, draining one chunk while the tree merges the next. The tree is the
// one a single worker streams, and its order does not depend on how its
// output is cut into chunks, so the merged order is the same at every
// Workers setting. The producer runs ahead of the consumer by at most one
// chunk, and a failure of the tree follows the elements merged before it.
type pipe[T any] struct {
	*stream.FeedReader[T]
	feed    *stream.Feed[T]
	tree    *LoserTree[T]
	scratch *codec.Scratch[T]
	done    chan struct{} // closed once the producer has returned
}

// newPipe starts the producer of tree over two chunks of size elements.
func newPipe[T any](tree *LoserTree[T], size int, sc *codec.Scratch[T]) *pipe[T] {
	feed := stream.NewFeed(1, 2, size, sc.Buffer)
	p := &pipe[T]{FeedReader: feed.Reader(0, nil), feed: feed, tree: tree, scratch: sc, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		feed.DealFrom(tree)
	}()
	return p
}

// Close stops the producer, waits for it, gives the chunks back to the
// scratch and closes the tree.
func (p *pipe[T]) Close() error {
	p.feed.Stop(stream.ErrClosed)
	<-p.done
	p.feed.Release(p.scratch.Put)
	return p.tree.Close()
}

// attrs describes the merge for its span, once closed: the chunks the
// consumer took and its wait for unfinished ones.
func (p *pipe[T]) attrs() []obs.Attr {
	return []obs.Attr{obs.Bool("pipelined", true), obs.Int("chunks", int64(p.Blocks)), obs.Int("wait_us", p.Waited.Microseconds())}
}
