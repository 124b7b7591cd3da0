package heap

import (
	"fmt"
	"math"
	"math/bits"
)

// vacant is the run tag of an empty leaf. It orders after every run, so an
// empty leaf loses every match against a live one and the tree is empty
// exactly when its winner is vacant. An empty leaf's key is its own index
// (or that flipped), so no two empty leaves tie either and the tie rule
// never sees their zero elements.
const vacant = math.MaxInt

// empty is the content of empty leaf i.
func empty[T any](i int) Item[T] { return Item[T]{Run: vacant, Key: uint64(i)} }

// Tree is a run-tagged tree of losers (Knuth, TAOCP vol. 3, §5.4.1) over a
// fixed number of leaf slots: the priority queue of replacement selection,
// whose every step takes the winner out and puts the next input record in
// its place. Each leaf holds an Item; internal node j (1 ≤ j < Cap) holds
// the leaf that lost the match played there and node 0 the overall winner.
// Leaf i sits at tree position Cap+i, so a replacement replays the one path
// from the winner's leaf to the root: ⌈log2 M⌉ matches, where a heap's pop
// and push cost up to twice that. The path's nodes, and through them the
// leaves they name, are known before the first match, so its cache misses
// overlap instead of queueing one behind another as a heap's descent does;
// each match picks its winner with a select, not a branch.
//
// Priority is that of the heap sides — the pair (Run, Key), then the
// comparator — and direction is handled the same way: a max-tree stores
// ^Key and swaps the comparator's arguments on ties. Flip reverses the
// direction in place. Between comparator-equal items the one already
// holding the node wins; which of them leaves first is otherwise not
// specified.
type Tree[T any] struct {
	leaf   []Item[T]
	node   []int32
	less   func(a, b T) bool
	flip   uint64 // XORed into Key on the way in and out: ^0 on a max-tree
	n      int    // live leaves
	played bool   // Build has run: the loading phase is over
}

// NewTree returns an empty tree of the given capacity ordered by less. If
// desc is true it is a max-tree by element (within a run); otherwise a
// min-tree.
func NewTree[T any](capacity int, desc bool, less func(a, b T) bool) *Tree[T] {
	if capacity <= 0 || capacity > math.MaxInt32 {
		panic(fmt.Sprintf("heap: tree capacity must be in [1, 2^31), got %d", capacity))
	}
	if less == nil {
		panic("heap: nil comparator")
	}
	t := &Tree[T]{leaf: make([]Item[T], capacity), node: make([]int32, capacity), less: less}
	if desc {
		t.flip = ^uint64(0)
	}
	return t
}

// Len returns the number of items currently stored.
func (t *Tree[T]) Len() int { return t.n }

// Cap returns the number of leaves: the capacity, or after a first Build
// over fewer items, as many leaves as were loaded.
func (t *Tree[T]) Cap() int { return len(t.leaf) }

// Load puts an item in the next empty leaf of a tree still being loaded:
// Build plays the tournament over what was loaded. It panics on a full tree
// or after Build.
func (t *Tree[T]) Load(it Item[T]) {
	if t.played || t.n == len(t.leaf) {
		panic("heap: load on a full or played tree")
	}
	if it.Run < 0 {
		panic("heap: negative run tag")
	}
	it.Key ^= t.flip
	t.leaf[t.n] = it
	t.n++
}

// Build plays the whole tournament over the leaves as they stand — O(M)
// matches and no allocation — and ends the loading phase. Each internal
// node first takes the winner of its subtree, bottom-up; then, top-down,
// each trades it for the loser, the other of its two children's winners,
// which are still in place because children come after their parent.
//
// The first Build cuts the tree to the items loaded (one empty leaf if
// none were): a tree takes new items only in place of old ones, so an
// input shorter than the capacity never needs more leaves, and its builds
// and replays then cost what its items do.
func (t *Tree[T]) Build() {
	if !t.played {
		m := max(t.n, 1)
		t.leaf, t.node = t.leaf[:m], t.node[:m]
		if t.n == 0 {
			t.leaf[0] = empty[T](0)
		}
	}
	m, node := len(t.leaf), t.node
	win := func(c int) int32 {
		if c >= m {
			return int32(c - m)
		}
		return node[c]
	}
	for j := m - 1; j >= 1; j-- {
		a, b := win(2*j), win(2*j+1)
		if t.before(&t.leaf[b], &t.leaf[a]) {
			a = b
		}
		node[j] = a
	}
	node[0] = win(1)
	for j := 1; j < m; j++ {
		node[j] ^= win(2*j) ^ win(2*j+1)
	}
	t.played = true
}

// Flip reverses the tree's direction: every leaf is re-keyed in place and
// the tournament replayed, O(M) with no allocation. Run tags are kept, so
// at a run boundary, where every live item belongs to the next run, the
// items go on in the opposite order.
func (t *Tree[T]) Flip() {
	for i := range t.leaf {
		t.leaf[i].Key = ^t.leaf[i].Key
	}
	t.flip = ^t.flip
	t.Build()
}

// Top returns the highest-priority item without removing it. It panics on
// an empty or unplayed tree.
func (t *Tree[T]) Top() Item[T] {
	t.check()
	it := t.leaf[t.node[0]]
	it.Key ^= t.flip
	return it
}

// Replace removes the highest-priority item and puts it in its place.
func (t *Tree[T]) Replace(it Item[T]) {
	t.check()
	if it.Run < 0 {
		panic("heap: negative run tag")
	}
	w := int(t.node[0])
	it.Key ^= t.flip
	t.leaf[w] = it
	t.replay(w)
}

// Vacate removes the highest-priority item and leaves its leaf empty.
func (t *Tree[T]) Vacate() {
	var zero T
	t.Park(zero)
}

// Park removes the highest-priority item like Vacate but keeps rec in the
// emptied leaf, whose index it returns. The leaf stays empty to the tree,
// which never reads its element: a caller may hold an element there,
// through Parked, until it Puts an item there or Restores it.
func (t *Tree[T]) Park(rec T) int {
	t.check()
	w := int(t.node[0])
	t.leaf[w] = empty[T](w)
	t.leaf[w].Rec = rec
	t.n--
	t.replay(w)
	return w
}

// Parked returns the element slot of empty leaf i (see Park).
func (t *Tree[T]) Parked(i int) *T { return &t.leaf[i].Rec }

// Last returns an item that orders at or after every other the tree holds,
// in O(M); ok is false on an empty tree.
func (t *Tree[T]) Last() (it Item[T], ok bool) {
	if t.n == 0 {
		return it, false
	}
	w := -1
	for i := range t.leaf {
		if t.leaf[i].Run != vacant && (w < 0 || t.before(&t.leaf[w], &t.leaf[i])) {
			w = i
		}
	}
	it = t.leaf[w]
	it.Key ^= t.flip
	return it, true
}

// Put puts an item in empty leaf i and plays it in: O(log M), as Replace.
func (t *Tree[T]) Put(i int, it Item[T]) {
	if !t.played || t.leaf[i].Run != vacant || it.Run < 0 {
		panic("heap: put into a live leaf or an unplayed tree, or a negative run tag")
	}
	t.raise(i)
	it.Key ^= t.flip
	t.leaf[i] = it
	t.n++
	t.replay(i)
}

// Restore makes the parked leaves listed in leaves live again, item mapping
// each one's element to its item, and plays them in with one O(M) Build.
func (t *Tree[T]) Restore(item func(T) Item[T], leaves ...[]int32) {
	for _, l := range leaves {
		for _, i := range l {
			it := item(t.leaf[i].Rec)
			it.Key ^= t.flip
			t.leaf[i] = it
			t.n++
		}
	}
	t.Build()
}

// check panics unless the tree has been played and holds an item.
func (t *Tree[T]) check() {
	if !t.played || t.n == 0 {
		panic("heap: top of an empty or unplayed tree")
	}
}

// before reports whether leaf item a orders strictly before leaf item b.
func (t *Tree[T]) before(a, b *Item[T]) bool {
	borrow, tied := sub(a, b)
	return borrow != 0 || tied && t.tie(a, b)
}

// tie orders two live leaf items whose (Run, Key) pairs are equal: by the
// comparator in the tree's direction.
func (t *Tree[T]) tie(a, b *Item[T]) bool {
	if t.flip != 0 {
		a, b = b, a
	}
	return t.less(a.Rec, b.Rec)
}

// raise makes empty leaf i the winner along its path without a match, so
// that replay can play an item in from there. Down the path from the root,
// the two subtree winners that met at node j are the loser stored there and
// the winner that left j upward: the one from off the path is stored at j
// and the other goes on down, which at the bottom is leaf i itself.
func (t *Tree[T]) raise(i int) {
	m, node := len(t.leaf), t.node
	p := m + i
	out := node[0]
	for s := bits.Len(uint(p)) - 1; s >= 1; s-- {
		a := p >> (s - 1) // node j's child on the path
		j, l := p>>s, node[p>>s]
		if q := m + int(l); q>>(bits.Len(uint(q))-bits.Len(uint(a))) == a {
			node[j], out = out, l
		}
	}
}

// replay plays leaf w's path from its parent to the root. At each node the
// contender either stays winner or trades places with the stored loser.
// climb decides the matches whose pairs differ. A tie comes back here, to
// the comparator, and so do the ties right above it: on a comparator-only
// tree, whose keys are all zero, every match within a run. The verdict is
// as much a coin toss as a borrow, so it is masked in the same way; as a
// branch it mispredicted on every other match (DESIGN.md §7).
func (t *Tree[T]) replay(w int) {
	leaf, node := t.leaf, t.node
	for j := (w + len(leaf)) >> 1; j >= 1; {
		if w, j = climb(leaf, node, w, j); j == 0 {
			break
		}
		for ; j >= 1; j >>= 1 {
			c := int(node[j])
			if leaf[c].Key != leaf[w].Key || leaf[c].Run != leaf[w].Run {
				break
			}
			won := 0
			if t.tie(&leaf[c], &leaf[w]) {
				won = 1
			}
			x := (c ^ w) & -won
			node[j] = int32(c ^ x)
			w ^= x
		}
	}
	node[0] = int32(w)
}

// climb plays leaf w's path upward from node j while the (Run, Key) pairs
// decide, and returns the winner so far with the node of the first tie, or
// with 0 once past the root. Which of two unequal pairs is smaller is a coin
// toss on random input, so a match is a select, not a branch, as in
// merge.LoserTree.ReadBatch: m, the borrow of loser − contender, is all
// ones when the stored loser wins and picks winner, loser and the winning
// pair by masking. The loop calls nothing, so the pair stays in registers.
func climb[T any](leaf []Item[T], node []int32, w, j int) (int, int) {
	kw, rw := leaf[w].Key, uint64(leaf[w].Run)
	for ; j >= 1; j >>= 1 {
		c := int(node[j])
		kc, rc := leaf[c].Key, uint64(leaf[c].Run)
		lo, borrow := bits.Sub64(kc, kw, 0)
		hi, borrow := bits.Sub64(rc, rw, borrow)
		if lo|hi == 0 {
			return w, j
		}
		m := -borrow
		x := (c ^ w) & int(m)
		node[j] = int32(c ^ x)
		w ^= x
		kw ^= (kc ^ kw) & m
		rw ^= (rc ^ rw) & m
	}
	return w, 0
}
