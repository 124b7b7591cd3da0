package runio

import (
	"sync"

	"repro/internal/storage"
)

// queuedFile is a file being written as its writer's queue sees it: a
// forward file (outFile) or one file of a backward chain (chainFile), whose
// operations whoever executes them performs in order.
type queuedFile interface {
	exec(op int, block []byte) error
}

// outFile is one forward spill file as its writer's queue sees it: created,
// appended to and closed by whoever executes the operations, in order.
type outFile struct {
	st   storage.Backend
	name string
	w    storage.BlockWriter // nil before create and after a failed one
}

// The operations of a writer on its file. Those that carry a block take it
// from the writer's pool, and a write-behind returns it there once executed.
const (
	opCreate = iota
	// opAppend stores a block: on a forward file FrameHeadroom spare bytes,
	// then the payload; on a chain file a run of whole pages.
	opAppend
	// opFinish completes a chain file: the rest of its last block, if it
	// carries one, and its header.
	opFinish
	opClose
)

// exec performs one operation. A file whose create failed (or was skipped)
// ignores the rest.
func (f *outFile) exec(op int, block []byte) (err error) {
	switch {
	case op == opCreate:
		f.w, err = f.st.Create(f.name)
	case f.w == nil:
	case op == opAppend:
		err = storage.AppendBlock(f.w, block)
	case op == opClose:
		err = f.w.Close()
		f.w = nil
	}
	return err
}

// writeBehind is the write side of the run-generation pass under
// Emitter.Async. The streams that pass opens, forward files and backward
// chains alike, queue their creates, block writes, chain-file finishes and
// closes on it, and one background goroutine executes them in order, so
// creating a file, writing its blocks and closing it overlap the
// generator's sorting and encoding, across files as well as within one: a
// writer's Close returns once its last block is queued, and the next run
// starts filling while the last one drains.
//
// The emitter joins it (Barrier, AbortOpen) before anything depends on the
// files being complete: before a run is opened for reading or removed, at a
// durable commit boundary, before a failed sort's files are swept. The
// first error of a queued operation makes every later one a no-op (closes
// excepted, so no handle leaks) and is what every later call on the queue
// returns, join included: it surfaces at the next flush of any writer on
// the queue, and no later than the next join.
//
// A nil *writeBehind is the synchronous queue: every operation executes on
// the spot and returns its own error. Every other writer uses it, merge
// outputs and every writer of a sort at Parallelism 1 included.
//
// Only the owner calls its methods; the queue goroutine exists from the
// first queued operation to the next join.
type writeBehind struct {
	pool *storage.Pool

	// ops is nil while no goroutine runs. The capacity lets a run's last
	// block, its close, the next run's create and (2WRS) the creates,
	// finishes and closes of its other streams and chain files queue behind
	// the block being written without stalling the owner; blocks themselves
	// are bounded by inFlight, not by it.
	ops  chan queuedOp
	done chan struct{}
	// inFlight holds one token per block queued or being written: with the
	// one its writer is filling, that is the double buffer — a second full
	// block waits here for the first to reach the file.
	inFlight chan struct{}

	mu  sync.Mutex
	err error
}

type queuedOp struct {
	f     queuedFile
	op    int
	block []byte
}

// opQueueLen is the capacity of writeBehind.ops; see there.
const opQueueLen = 8

func newWriteBehind(pool *storage.Pool) *writeBehind {
	return &writeBehind{pool: pool, inFlight: make(chan struct{}, 1)}
}

// failure returns the first error of a queued operation, if any.
func (q *writeBehind) failure() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// do performs the operation now (nil queue) and returns its error, or
// queues it and returns the queue's first error so far. A queued block
// belongs to the queue, which returns it to the pool once written; in
// either case an error leaves it with the caller.
func (q *writeBehind) do(f queuedFile, op int, block []byte) error {
	if q == nil {
		return f.exec(op, block)
	}
	if err := q.failure(); err != nil {
		return err
	}
	q.enqueue(f, op, block)
	return nil
}

// enqueue queues the operation whatever the queue's state, starting the
// goroutine if none runs.
func (q *writeBehind) enqueue(f queuedFile, op int, block []byte) {
	if q.ops == nil {
		q.ops, q.done = make(chan queuedOp, opQueueLen), make(chan struct{})
		go q.run(q.ops, q.done)
	}
	if block != nil {
		q.inFlight <- struct{}{}
	}
	q.ops <- queuedOp{f, op, block}
}

func (q *writeBehind) run(ops <-chan queuedOp, done chan<- struct{}) {
	defer close(done)
	for o := range ops {
		if q.failure() == nil || o.op == opClose {
			if err := o.f.exec(o.op, o.block); err != nil {
				q.mu.Lock()
				if q.err == nil {
					q.err = err
				}
				q.mu.Unlock()
			}
		}
		if o.block != nil {
			q.pool.Put(o.block)
			<-q.inFlight
		}
	}
}

// close closes f behind whatever is still queued for it — queued even when
// the queue has failed, so that the handle is closed — and returns the
// close's error, or on a write-behind the queue's error so far.
func (q *writeBehind) close(f queuedFile) error {
	if q == nil {
		return f.exec(opClose, nil)
	}
	q.enqueue(f, opClose, nil)
	return q.failure()
}

// join waits until every queued operation has executed, stops the queue's
// goroutine and returns the first error any operation has met.
func (q *writeBehind) join() error {
	if q == nil {
		return nil
	}
	if q.ops != nil {
		close(q.ops)
		<-q.done
		q.ops = nil
	}
	return q.failure()
}
