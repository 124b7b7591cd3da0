package merge

import "repro/internal/codec"

// Offset-value coding: the loser tree's tie rule for variable-width keys
// and keys longer than the cached word (DESIGN.md §12). Each source carries
// its head's full key bytes — re-derived from the decoded element on every
// advance, the cheap side of the spill boundary: keys need not be stored in
// the run files — plus an OVC code: the offset of the first byte where the
// key departs from a reference key it is known to be ≥, and the value of
// that byte. Two codes relative to the same reference decide a match with
// one integer compare; only equal codes (keys that agree through the
// decisive byte) scan further, and that scan yields the loser's refreshed
// code for free. Two equal full keys are a tie only under a total codec;
// otherwise the comparator decides, as it does for the shorter key shapes.

// ovcCap bounds the offsets offset-value codes can express. Keys whose
// decisive byte lies beyond it (a multi-megabyte shared prefix) simply
// fall back to full key compares via an invalid reference.
const ovcCap = 1 << 22

// ovcByteAt is the key byte at off shifted into code space: 0 encodes
// end-of-key (a virtual terminator below every real byte, so a key sorts
// before every proper extension of itself), and a real byte b encodes as
// b+1.
func ovcByteAt(key []byte, off int) uint64 {
	if off >= len(key) {
		return 0
	}
	return uint64(key[off]) + 1
}

// ovcCode packs (offset of first difference from the reference, value at
// that offset) so that, for two keys ≥ the same reference, the larger code
// belongs to the larger key: a LATER offset means a LONGER shared prefix
// with the reference, hence a smaller key, so the offset enters the code
// complemented.
func ovcCode(off int, val uint64) uint64 {
	return uint64(ovcCap-off)<<9 | val
}

// ovcState is the per-source state of the offset-value-coding tie rule.
type ovcState[T any] struct {
	kc codec.KeyCodec[T]
	// key[i] is the head's full normalized key, and spare[i] a second buffer
	// so load can re-derive the new key while the previous one (the code's
	// reference) is still readable.
	key   [][]byte
	spare [][]byte
	// code[i] is the head's code relative to the element whose id is ref[i];
	// ids are handed out per loaded element, and 0 marks "no valid code"
	// (full compare required). Codes are only compared when their refs match
	// — the guard that keeps interleaved ascents correct.
	code []uint64
	ref  []uint64
	id   []uint64
	next uint64
	// fastPath / fullCmp count decided matches for tests and benchmarks.
	fastPath int64
	fullCmp  int64
}

func newOVCState[T any](kc codec.KeyCodec[T], k int) *ovcState[T] {
	return &ovcState[T]{
		kc:    kc,
		key:   make([][]byte, k),
		spare: make([][]byte, k),
		code:  make([]uint64, k),
		ref:   make([]uint64, k),
		id:    make([]uint64, k),
	}
}

// load is the tree's per-advance hook: it re-derives source i's key bytes
// for its new head rec — the spill boundary ships only elements, so this is
// one AppendKey per record — and seeds the head's code relative to the
// element it replaces: a run is sorted, so the predecessor (just output) is
// a valid reference.
func (o *ovcState[T]) load(i int, rec T) {
	prevKey, prevID := o.key[i], o.id[i]
	newKey := o.kc.AppendKey(o.spare[i][:0], rec)
	o.spare[i] = prevKey
	o.key[i] = newKey
	o.next++
	o.id[i] = o.next
	o.ref[i] = 0
	if prevID != 0 {
		off := codec.FirstDiff(newKey, prevKey)
		o.tag(i, prevID, off, ovcByteAt(newKey, off))
	}
}

// tag records loser's code relative to the element with id winner: their
// keys first differ at off, where the loser's byte is val.
func (o *ovcState[T]) tag(loser int, winner uint64, off int, val uint64) {
	if off < ovcCap {
		o.code[loser] = ovcCode(off, val)
		o.ref[loser] = winner
	} else {
		o.ref[loser] = 0
	}
}

// ovcSettle is the tie rule's slow path: it decides a match between live
// sources by scanning their keys from `from` (they are known equal before
// it), tags the loser with its code relative to the winner — which keeps
// codes on a replay path comparable in one integer operation — and reports
// whether a strictly precedes b. Equal keys are a tie —
// a does not precede b — unless the codec is not total, where the
// comparator has the last word.
func (t *LoserTree[T]) ovcSettle(a, b int, from int) bool {
	o := t.ovc
	ka, kb := o.key[a], o.key[b]
	off := min(len(ka), len(kb))
	if from < off {
		off = from + codec.FirstDiff(ka[from:], kb[from:])
	}
	va, vb := ovcByteAt(ka, off), ovcByteAt(kb, off)
	if va < vb || (va == vb && t.cmp != nil && t.cmp(t.head(a), t.head(b))) {
		o.tag(b, o.id[a], off, vb)
		return true
	}
	o.tag(a, o.id[b], off, va)
	return false
}
