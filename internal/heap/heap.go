// Package heap implements run-tagged priority queues: the tree of losers
// that replacement selection (Chapter 3 of the thesis) and the alternating
// generator run on, the single-array double heap of two-way replacement
// selection (§4.1), and the binary heap that bounded selection
// (internal/select) keeps.
//
// All are generic over the element type T and ordered by a caller supplied
// comparator. Items carry a run number in addition to their element. An
// element marked for a later run always orders after every element of the
// current run (in either direction), which is exactly the trick RS uses to
// keep next-run records out of the way: priority is the pair (run,
// element).
package heap

import (
	"fmt"
	"math/bits"
)

// Item is an element tagged with the run it belongs to, plus an optional
// cached normalized-key prefix (codec.Prefix of the element's key bytes).
// Keyed run generators fill Key so sift comparisons resolve on an integer
// compare and call the comparator only on prefix ties; unkeyed callers
// leave it zero, where every compare ties and falls through to the
// comparator. Key must order consistently with the comparator (a
// coarsening of it, as codec.Prefix is) and Run must not be negative.
type Item[T any] struct {
	Rec T      // the element
	Run int    // the run it belongs to
	Key uint64 // the cached key prefix, or zero
}

// side is a binary heap laid out over a (possibly shared) backing array.
// Logical indices are 1-based — root 1, children of j at 2j and 2j+1 — and
// index j lives at physical position org + (j XOR mask): mask 0 counts up
// from org (forward), mask -1 counts down from org-1 (mirrored, since
// j XOR -1 = -j-1), which is how the TopHeap and BottomHeap of 2WRS share
// one allocation and trade capacity 1:1 (§4.1, Figures 4.3-4.5).
//
// Priority encoding. An item's priority is the unsigned 128-bit pair
// (Run, Key): lower pair first, the comparator only when both words are
// equal. A max-heap side stores ^Key (flip is all ones there, zero on a
// min-heap side) and restores it in peek and pop, so both directions
// compare the same way and one two-word subtraction (bits.Sub64 chained
// through its borrow) decides a pair: the borrow is "strictly before", a
// zero difference is "consult the comparator". Run tags must not be
// negative.
//
// Tie rules. The left child wins a tie between siblings and a sift-up
// stops at a parent it ties with — the decisions of the textbook loops —
// so the pop sequence, and with it every run file, does not depend on how
// the compare is computed.
//
// Layout. Items of the record types are 32 bytes, so a sibling pair
// (2j, 2j+1) is 64 bytes. A forward side has org 0, leaving physical slot
// 0 as a pad, and a mirrored side sits in an array of odd length, so on
// both every sibling pair starts at an even physical index and shares one
// 64-byte line of a line-aligned array instead of always straddling two.
type side[T any] struct {
	arr  []Item[T]
	less func(a, b T) bool
	n    int
	org  int    // 0 forward, len(arr)+1 mirrored
	mask int    // 0 forward, -1 mirrored
	flip uint64 // XORed into Key on the way in and out: ^0 on a max-heap side
	look int    // keeps pop's lookahead loads alive; never read
}

// lookFrom is the logical index from which pop reads one word of each of
// the two grandchild lines before it resolves the current level. A
// branch-free descent issues no speculative loads down a predicted path,
// so outside the cache every level would wait out a whole miss; the touch
// overlaps the next level's miss with this level's compare. Measured on
// the replacement-selection step of bench_test.go (ns per step, keyed,
// 4 MB L2): M = 2^14 119 with the touch, 124 without; 2^16 167 and 178;
// 2^20 463 and 689, against 614 for the branching loop this replaced.
// Below 2^12 items a heap is 128 KB and the touch buys nothing.
const lookFrom = 1 << 12

func forward[T any](arr []Item[T], desc bool, less func(a, b T) bool) side[T] {
	s := side[T]{arr: arr, less: less}
	if desc {
		s.flip = ^uint64(0)
	}
	return s
}

func mirrored[T any](arr []Item[T], less func(a, b T) bool) side[T] {
	return side[T]{arr: arr, less: less, org: len(arr) + 1, mask: -1}
}

// arenaLen is the array length that holds capacity items behind the
// forward pad slot, rounded up to odd so a mirrored side's sibling pairs
// line up too.
func arenaLen(capacity int) int { return (capacity + 1) | 1 }

// tie orders two items whose (Run, Key) pairs are equal: by the comparator,
// in the side's direction.
func (s *side[T]) tie(a, b *Item[T]) bool {
	if s.flip != 0 {
		a, b = b, a
	}
	return s.less(a.Rec, b.Rec)
}

// sub subtracts b's priority pair from a's. borrow is 1 when a is strictly
// before b on the pair alone; tied reports equal pairs, which only the
// comparator can order. A free function so the sift loops inline it.
func sub[T any](a, b *Item[T]) (borrow uint64, tied bool) {
	lo, borrow := bits.Sub64(a.Key, b.Key, 0)
	hi, borrow := bits.Sub64(uint64(a.Run), uint64(b.Run), borrow)
	return borrow, lo|hi == 0
}

func (s *side[T]) at(j int) *Item[T] { return &s.arr[s.org+(j^s.mask)] }
func (s *side[T]) len() int          { return s.n }

func (s *side[T]) peek() Item[T] {
	it := *s.at(1)
	it.Key ^= s.flip
	return it
}

// push inserts by walking a hole up from the new leaf.
func (s *side[T]) push(it Item[T]) {
	if it.Run < 0 {
		panic("heap: negative run tag")
	}
	it.Key ^= s.flip
	s.n++
	s.up(s.n, &it)
}

// up walks a hole from logical slot j toward the root: ancestors move down
// one slot each until the item's position is found, writing each slot once
// (no swaps), and the walk stops at the first parent the item is not
// strictly before.
func (s *side[T]) up(j int, it *Item[T]) {
	arr, org, mask := s.arr, s.org, s.mask
	for j > 1 {
		p := &arr[org+((j>>1)^mask)]
		if borrow, tied := sub(it, p); borrow == 0 && !(tied && s.tie(it, p)) {
			break
		}
		arr[org+(j^mask)] = *p
		j >>= 1
	}
	arr[org+(j^mask)] = *it
}

// pop removes the root using bottom-up sifting (Wegener): the hole left at
// the root walks down the best-child path to a leaf — one comparison per
// level — and the former last leaf is then sifted up from there, which on
// replacement-selection workloads almost always terminates immediately
// because a leaf is low-priority. Vacated slots are not zeroed; they are
// invisible to both sides and overwritten by later pushes.
//
// The descent runs on x = j XOR mask, the hole's offset from org, because
// in that space the children of x are 2x and 2x+1 on either side (the left
// child is the lower of the two forward, the upper mirrored): the winner
// is 2x+1 minus the borrow of lower−upper, one subtract-with-borrow after
// the compare and no branch on its outcome.
func (s *side[T]) pop() Item[T] {
	arr, org, mask := s.arr, s.org, s.mask
	n := s.n - 1
	s.n = n
	top := arr[org+(1^mask)]
	top.Key ^= s.flip
	if n == 0 {
		return top
	}
	it := arr[org+((n+1)^mask)] // former last leaf, to be re-placed
	j, x, look := 1, 1^mask, 0
	for ; 2*j+1 <= n; j = x ^ mask {
		if j >= lookFrom && 4*j+3 <= n {
			look += arr[org+4*x].Run + arr[org+4*x+2].Run
		}
		borrow, tied := sub(&arr[org+2*x], &arr[org+2*x+1])
		c, _ := bits.Sub64(uint64(2*x+1), 0, borrow)
		if tied {
			// The comparator decides, and the left child wins its ties:
			// t is "right strictly first". The left child is the lower
			// slot forward, so lower wins on !t; mirrored it is the
			// upper one, so lower wins on t.
			t := 0
			if s.tie(&arr[org+2*x+1+mask], &arr[org+2*x-mask]) {
				t = 1
			}
			c = uint64(2*x + 1 - (t ^ (1 + mask)))
		}
		arr[org+x] = arr[org+int(c)]
		x = int(c)
	}
	if 2*j <= n { // a last level with a left child only
		arr[org+x] = arr[org+(2*j^mask)]
		x = 2*j ^ mask
	}
	s.look = look
	s.up(x^mask, &it)
	return top
}

// valid reports whether the heap property holds everywhere; tests use it.
func (s *side[T]) valid() bool {
	for j := 2; j <= s.n; j++ {
		c, p := s.at(j), s.at(j>>1)
		if borrow, tied := sub(c, p); borrow != 0 || tied && s.tie(c, p) {
			return false
		}
	}
	return true
}

// Heap is a single run-tagged binary heap of fixed capacity. Replacement
// selection runs on Tree, whose replacement is one leaf-to-root replay;
// Heap keeps the push and pop of bounded selection.
type Heap[T any] struct {
	s side[T]
}

// New returns a heap of the given capacity ordered by less. If desc is true
// the heap is a max-heap by element (within a run); otherwise a min-heap.
func New[T any](capacity int, desc bool, less func(a, b T) bool) *Heap[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("heap: capacity must be positive, got %d", capacity))
	}
	if less == nil {
		panic("heap: nil comparator")
	}
	return &Heap[T]{s: forward(make([]Item[T], 1+capacity), desc, less)}
}

// Len returns the number of items currently stored.
func (h *Heap[T]) Len() int { return h.s.len() }

// Cap returns the fixed capacity.
func (h *Heap[T]) Cap() int { return len(h.s.arr) - 1 }

// Full reports whether the heap is at capacity.
func (h *Heap[T]) Full() bool { return h.s.n == h.Cap() }

// Push adds an item. It panics if the heap is full: run generation
// algorithms are responsible for popping before pushing, and overflowing
// the memory budget is a programming error, not a runtime condition.
func (h *Heap[T]) Push(it Item[T]) {
	if h.Full() {
		panic("heap: push on full heap")
	}
	h.s.push(it)
}

// Pop removes and returns the highest-priority item. It panics on an empty
// heap.
func (h *Heap[T]) Pop() Item[T] {
	if h.s.n == 0 {
		panic("heap: pop on empty heap")
	}
	return h.s.pop()
}

// Peek returns the highest-priority item without removing it.
func (h *Heap[T]) Peek() Item[T] {
	if h.s.n == 0 {
		panic("heap: peek on empty heap")
	}
	return h.s.peek()
}

// Reset empties the heap, retaining its backing array. The whole array is
// cleared — pop leaves vacated slots populated — so retained references are
// released here.
func (h *Heap[T]) Reset() {
	clear(h.s.arr)
	h.s.n = 0
}

// Valid reports whether the heap property currently holds; it exists for
// tests and invariant checks.
func (h *Heap[T]) Valid() bool { return h.s.valid() }

// DoubleHeap is the 2WRS memory arena: a max-heap (BottomHeap) growing from
// the front of the array upward and a min-heap (TopHeap) growing from the
// last index downward, sharing one fixed array so that either can grow at
// the expense of the other (§4.1).
type DoubleHeap[T any] struct {
	arr    []Item[T] // arenaLen(capacity) slots: the pad, the items, at most one idle slot
	cap    int       // logical capacity: what Cap and Full report
	bottom side[T]
	top    side[T]
}

// NewDouble returns a DoubleHeap with the given total capacity shared by the
// two heaps, both ordered by less.
func NewDouble[T any](capacity int, less func(a, b T) bool) *DoubleHeap[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("heap: capacity must be positive, got %d", capacity))
	}
	if less == nil {
		panic("heap: nil comparator")
	}
	arr := make([]Item[T], arenaLen(capacity))
	return &DoubleHeap[T]{
		arr:    arr,
		cap:    capacity,
		bottom: forward(arr, true, less),
		top:    mirrored(arr, less),
	}
}

// Len returns the combined number of items stored in both heaps.
func (d *DoubleHeap[T]) Len() int { return d.bottom.n + d.top.n }

// Cap returns the shared capacity.
func (d *DoubleHeap[T]) Cap() int { return d.cap }

// Full reports whether the combined heaps are at capacity.
func (d *DoubleHeap[T]) Full() bool { return d.Len() == d.cap }

// LenTop returns the size of the TopHeap.
func (d *DoubleHeap[T]) LenTop() int { return d.top.n }

// LenBottom returns the size of the BottomHeap.
func (d *DoubleHeap[T]) LenBottom() int { return d.bottom.n }

// PushTop inserts into the TopHeap (min-heap). Panics when full.
func (d *DoubleHeap[T]) PushTop(it Item[T]) {
	if d.Full() {
		panic("heap: push on full double heap")
	}
	d.top.push(it)
}

// PushBottom inserts into the BottomHeap (max-heap). Panics when full.
func (d *DoubleHeap[T]) PushBottom(it Item[T]) {
	if d.Full() {
		panic("heap: push on full double heap")
	}
	d.bottom.push(it)
}

// PopTop removes the smallest current item of the TopHeap.
func (d *DoubleHeap[T]) PopTop() Item[T] {
	if d.top.n == 0 {
		panic("heap: pop on empty top heap")
	}
	return d.top.pop()
}

// PopBottom removes the largest current item of the BottomHeap.
func (d *DoubleHeap[T]) PopBottom() Item[T] {
	if d.bottom.n == 0 {
		panic("heap: pop on empty bottom heap")
	}
	return d.bottom.pop()
}

// PeekTop returns the smallest item of the TopHeap without removing it.
func (d *DoubleHeap[T]) PeekTop() Item[T] {
	if d.top.n == 0 {
		panic("heap: peek on empty top heap")
	}
	return d.top.peek()
}

// PeekBottom returns the largest item of the BottomHeap without removing it.
func (d *DoubleHeap[T]) PeekBottom() Item[T] {
	if d.bottom.n == 0 {
		panic("heap: peek on empty bottom heap")
	}
	return d.bottom.peek()
}

// Valid reports whether both heap properties hold and the two sides do not
// overlap; tests use it.
func (d *DoubleHeap[T]) Valid() bool {
	return d.Len() <= d.cap && d.bottom.valid() && d.top.valid()
}

// Reset empties both heaps.
func (d *DoubleHeap[T]) Reset() {
	clear(d.arr)
	d.bottom.n = 0
	d.top.n = 0
}
