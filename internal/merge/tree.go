// Package merge implements the merge phase of external mergesort
// (§2.1.2 of the thesis): a k-way merge built on one loser tree — which
// matches on cached normalized-key words when the emitter carries a key
// codec and on the comparator alone when it does not — and a multi-pass
// driver with configurable fan-in. Everything is generic over the element
// type, ordered by a caller-supplied comparator.
//
// The tree is the only merge engine. A merge operation's leaves are the
// sorted pieces of the runs it reads (runio.OpenRun): one per run, or one
// per segment of a 2WRS run whose stream ranges overlap, so a run is one to
// four leaves while the plan and the fan-in count runs. Sources, the tree and
// the Stream it ends in all read a batch at a time (stream.BatchReader); and
// every count the plan knows is checked — a piece, an operation's output and
// a fully drained final merge that hold another number of records than they
// should fail with an error matching storage.ErrCorrupt.
package merge

import (
	"io"
	"math/bits"

	"repro/internal/codec"
	"repro/internal/stream"
)

// Source is a sorted element stream being merged: a leaf of the tree, read
// a batch at a time. A piece of a run (runio.Reader) is one.
type Source[T any] interface {
	stream.BatchReader[T]
	Close() error
}

// leafBatch is the element count of the per-input refill buffers the loser
// tree keeps: each leaf advance is an array index, and the underlying
// run-reader stack is entered once per leafBatch elements.
const leafBatch = 256

// leafArena is the memory one merging goroutine reuses from operation to
// operation: leafBatch decoded elements per source, for a keyed tree their
// cached words, and the batch its copy loop moves the output through, all
// borrowed from sc (nil: allocated) and given back by release. It outlives
// the engines built in it — a merge worker builds one per merge operation,
// one after the other, and the final merge takes over the first worker's —
// and holds no memory between merges.
type leafArena[T any] struct {
	sc    *codec.Scratch[T]
	buf   []T
	keys  []uint64
	batch []T
}

// borrow returns the arena slab cut to n elements, first giving it back
// with put for a wider one from get when it is narrower.
func borrow[E any](slab *[]E, n int, get func(int) []E, put func([]E)) []E {
	if len(*slab) < n {
		put(*slab)
		*slab = get(n)[:n]
	}
	return (*slab)[:n]
}

// release gives the arena's memory back to the scratch.
func (a *leafArena[T]) release() {
	a.sc.Put(a.buf)
	a.sc.PutWords(a.keys)
	a.sc.Put(a.batch)
	a.buf, a.keys, a.batch = nil, nil, nil
}

// leaves holds the decoded batches of k sources in one slab: source i's
// batch lies in buf[i*leafBatch:(i+1)*leafBatch], its head — the element it
// offers to the merge — is buf[pos[i]], read in place, and end[i] is one
// past its last decoded element. A source is exhausted, and has no head,
// when pos[i] == end[i] after a refill.
type leaves[T any] struct {
	srcs []Source[T]
	buf  []T
	pos  []int
	end  []int
}

// newLeaves lays the sources' batches out in the arena. Every source starts
// drained: its first refill primes it.
func newLeaves[T any](a *leafArena[T], srcs []Source[T]) leaves[T] {
	k := len(srcs)
	l := leaves[T]{
		srcs: srcs,
		buf:  borrow(&a.buf, k*leafBatch, a.sc.Buffer, a.sc.Put),
		pos:  make([]int, k),
		end:  make([]int, k),
	}
	for i := range srcs {
		l.pos[i], l.end[i] = i*leafBatch, i*leafBatch
	}
	return l
}

// refill reads source i's next batch and puts its head on the batch's first
// element. It returns the batch — empty at the end of the source's stream.
func (l *leaves[T]) refill(i int) ([]T, error) {
	batch := l.buf[i*leafBatch : (i+1)*leafBatch]
	n, err := l.srcs[i].ReadBatch(batch)
	if err != nil && err != io.EOF {
		return nil, err
	}
	l.pos[i], l.end[i] = i*leafBatch, i*leafBatch+n
	return batch[:n], nil
}

// done reports whether source i is exhausted.
func (l *leaves[T]) done(i int) bool { return l.pos[i] == l.end[i] }

// head is source i's head element, read where its leaf batch was decoded.
func (l *leaves[T]) head(i int) T { return l.buf[l.pos[i]] }

// closeAll closes every source, returning the first error.
func (l *leaves[T]) closeAll() error {
	var first error
	for _, s := range l.srcs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// LoserTree is the merge engine, and the only one: a tournament tree over k
// sorted sources that performs ⌈log2 k⌉ matches per element (the winner
// replays only its own path), where a heap of sources costs up to twice that
// — BenchmarkAblationMergeEngine quantifies the difference against the
// reference HeapMerger the tests keep (heapmerger_test.go). Leaves are
// refilled a batch at a time, so source dispatch — and, under a key codec,
// the key computation — is paid once per leafBatch elements, and what the
// per-element loop touches is arrays.
//
// There is one tree for every key shape, laid out like the heap kernel's
// Item (DESIGN.md §12): per source a head element, read in place in its
// decoded leaf batch, and a cached uint64 key, and a tie rule consulted only
// when two keys are equal.
//
//   - The key is codec.Prefix of the head's normalized key under a key
//     codec — loaded, on an advance, from the key array the refill filled
//     beside the batch — and stays zero in the unkeyed tree, so that every
//     match ties and falls through to the rule. An exhausted source holds ^0
//     and therefore orders last without a liveness check anywhere off the
//     tie path.
//   - The tie rule is nothing when the word is the whole key and the key is
//     total (equal words are identical elements), and the comparator for
//     every other shape: a key longer than 8 bytes or of variable width, a
//     key that is not total, and the unkeyed tree.
//
// A key orders consistently with the comparator (it coarsens it) and only
// a word that is a whole total key stands in for it on ties, so the merged
// order is the comparator's for every shape — also under a comparator that
// refines key ties, as Key-then-Aux does over a Record's Key codec.
type LoserTree[T any] struct {
	leaves[T]
	// key[i] is the cached key of source i's head.
	key []uint64
	// keys, under a key codec, holds the key of every decoded leaf element
	// at the element's index in buf — computed a batch at a time by pfx when
	// the leaf refills, so an advance loads its key — and is nil in the
	// unkeyed tree, which leaves every live key zero.
	keys []uint64
	pfx  func(dst []uint64, src []T)
	// cmp is the tie rule; nil when the word is a whole total key.
	cmp func(a, b T) bool
	// tree[j] holds the loser of the match at internal node j; tree[0]
	// holds the overall winner.
	tree   []int
	k      int
	closed bool
	err    error // a source's failure: every read after the batch that met it returns it
}

// NewLoserTree builds the unkeyed tree over the given sources, priming each
// one: every match is decided by less.
func NewLoserTree[T any](srcs []Source[T], less func(a, b T) bool) (*LoserTree[T], error) {
	return newTree(srcs, less, nil)
}

// newTree is newTreeIn over leaf memory of the tree's own.
func newTree[T any](srcs []Source[T], less func(a, b T) bool, kc codec.KeyCodec[T]) (*LoserTree[T], error) {
	return newTreeIn(new(leafArena[T]), srcs, less, kc)
}

// newTreeIn builds the tree over the sources with its leaves in the arena,
// priming each source. kc, when not nil, is a key codec consistent with
// less; the tie rule follows from what it reports about itself.
func newTreeIn[T any](a *leafArena[T], srcs []Source[T], less func(a, b T) bool, kc codec.KeyCodec[T]) (*LoserTree[T], error) {
	k := len(srcs)
	t := &LoserTree[T]{
		leaves: newLeaves(a, srcs),
		key:    make([]uint64, k),
		cmp:    less,
		tree:   make([]int, k),
		k:      k,
	}
	if kc != nil {
		t.keys, t.pfx = borrow(&a.keys, k*leafBatch, a.sc.Words, a.sc.PutWords), codec.PrefixAllFunc(kc)
		if codec.PrefixIsKey(kc) && kc.TotalKey() {
			t.cmp = nil
		}
	}
	for i := range srcs {
		if err := t.refill(i); err != nil {
			t.Close()
			return nil, err
		}
	}
	t.build()
	return t, nil
}

// refill is the slow path of an advance, once per leafBatch elements: it
// reads source i's next batch, computes the cached key of every element of
// it in one pass, and loads the new head's key. A source at its end gets the
// sentinel.
func (t *LoserTree[T]) refill(i int) error {
	batch, err := t.leaves.refill(i)
	if err != nil {
		return err
	}
	h := t.pos[i]
	switch {
	case len(batch) == 0:
		t.key[i] = ^uint64(0)
	case t.keys != nil:
		t.pfx(t.keys[h:h+len(batch)], batch)
		t.key[i] = t.keys[h]
	}
	return nil
}

// tie is the tie rule: whether source a's head orders strictly before
// source b's when their cached keys are equal. Exhaustion is resolved here
// and only here, and only behind the sentinel — an exhausted source's ^0
// can tie with another exhausted source or with a live maximal key — and
// exhausted sources order last. Between live heads the comparator decides,
// unless the word is a whole total key (cmp is nil: equal words are
// identical elements).
func (t *LoserTree[T]) tie(a, b int) bool {
	if t.key[a] == ^uint64(0) && (t.done(a) || t.done(b)) {
		return !t.done(a)
	}
	return t.cmp != nil && t.cmp(t.head(a), t.head(b))
}

// beats reports whether source a's head orders strictly before source b's.
func (t *LoserTree[T]) beats(a, b int) bool {
	return t.key[a] < t.key[b] || (t.key[a] == t.key[b] && t.tie(a, b))
}

// build runs the initial tournament, filling tree with losers and tree[0]
// with the winner.
func (t *LoserTree[T]) build() {
	if t.k == 0 {
		return
	}
	// Play the tournament bottom-up: winner[j] for internal node j over
	// leaves k..2k-1 (leaf j represents source j-k).
	winner := make([]int, 2*t.k)
	for j := t.k; j < 2*t.k; j++ {
		winner[j] = j - t.k
	}
	for j := t.k - 1; j >= 1; j-- {
		a, b := winner[2*j], winner[2*j+1]
		if t.beats(a, b) {
			winner[j] = a
			t.tree[j] = b
		} else {
			winner[j] = b
			t.tree[j] = a
		}
	}
	t.tree[0] = winner[1]
}

// ReadBatch fills dst with the next elements in global sorted order per the
// stream.BatchReader contract, replaying the winner path once per element
// but paying the interface dispatch to the caller only once per batch. A
// source error after a partial batch is held back: the batch is returned
// first and the error by every call after it.
func (t *LoserTree[T]) ReadBatch(dst []T) (int, error) {
	if t.closed {
		return 0, stream.ErrClosed
	}
	if t.err != nil || len(dst) == 0 {
		return 0, t.err
	}
	if t.k == 0 {
		return 0, io.EOF
	}
	key, tree, pos, end, buf, keys := t.key, t.tree, t.pos, t.end, t.buf, t.keys
	w := tree[0]
	n := 0
	for n < len(dst) {
		h := pos[w]
		if h == end[w] { // the winner is exhausted, so every source is
			if n == 0 {
				return 0, io.EOF
			}
			break
		}
		dst[n] = buf[h]
		n++
		// Advance the winner: its next leaf element becomes its head, and the
		// head's key is a load — the batch's keys were computed by the refill.
		h++
		pos[w] = h
		if h == end[w] {
			err := t.refill(w)
			if err == nil {
				var c int
				c, err = t.stretch(w, dst[n:])
				n += c
			}
			if err != nil {
				t.err = err
				break
			}
		} else if keys != nil {
			key[w] = keys[h]
		}
		kw := key[w]
		// Replay the winner's path to the root: at each internal node the
		// contender either stays winner or swaps with the stored loser. Equal
		// keys branch to the tie rule. Which of two unequal keys is smaller is
		// a coin toss on random input, so that swap is a select, not a branch:
		// m — the borrow of kc - kw, all ones when the stored loser wins —
		// picks winner, loser and winning key by masking. Written as an if it
		// stays a branch (the compiler makes no conditional move of a value
		// that indexes later loads) and costs the prefix shape 14 → 20 ns a
		// record at fan-in 4 (BenchmarkKeyedVsComparatorMerge).
		for j := (w + t.k) >> 1; j >= 1; j >>= 1 {
			c := tree[j]
			kc := key[c]
			if kc == kw {
				if t.tie(c, w) {
					tree[j], w = w, c
				}
				continue
			}
			_, lt := bits.Sub64(kc, kw, 0)
			m := -lt
			x := (c ^ w) & int(m)
			tree[j] = c ^ x
			w ^= x
			kw ^= (kc ^ kw) & m
		}
	}
	tree[0] = w
	return n, nil
}

// stretch copies into dst, batch by batch, the batches of the winner w —
// just refilled — that order wholly below every loser on its path: keyed
// below the least of their keys, they would win every match of every
// replay, which would change nothing. On input whose runs take turns in
// long stretches — the paper's structured inputs — most batches go so. It
// returns what it copied; w keeps its place, its head the next element.
// Checked once per refill, it costs random input a walk up one path per
// leafBatch elements.
func (t *LoserTree[T]) stretch(w int, dst []T) (int, error) {
	below := ^uint64(0)
	for j := (w + t.k) >> 1; j >= 1; j >>= 1 {
		below = min(below, t.key[t.tree[j]])
	}
	n := 0
	for n < len(dst) {
		h, e := t.pos[w], t.end[w]
		if h == e || t.key[w] >= below || t.keys != nil && t.keys[e-1] >= below {
			break
		}
		c := copy(dst[n:], t.buf[h:e])
		n += c
		if t.pos[w] = h + c; h+c < e {
			if t.keys != nil {
				t.key[w] = t.keys[h+c]
			}
			break
		}
		if err := t.refill(w); err != nil {
			return n, err
		}
	}
	return n, nil
}

// Close closes every source, returning the first error encountered.
func (t *LoserTree[T]) Close() error {
	if t.closed {
		return stream.ErrClosed
	}
	t.closed = true
	return t.closeAll()
}
