package distsort

import (
	"bytes"
	"sort"

	"repro/internal/codec"
	"repro/internal/extsort"
	sel "repro/internal/select"
)

// router assigns every element to exactly one shard. Shard i owns the key
// range (bounds[i-1], bounds[i]]: elements strictly between two distinct
// splitter values have a unique shard, and elements equal to a splitter
// value are spread round-robin across the band of shards whose upper
// bounds collapsed onto that value — the fallback that keeps heavily
// duplicated inputs balanced. Routing is single-threaded (the partition
// loop owns it) and deterministic for a fixed input order, which both the
// byte-identity and the resume guarantees rely on.
type router[T any] struct {
	shards int
	less   func(a, b T) bool

	// bounds holds the distinct splitter values ascending; gap[j] is the
	// single shard for elements strictly between bounds[j-1] and
	// bounds[j] (gap[len(bounds)] catches everything above the last).
	// eqLo[j]/eqN[j] describe the tie band for elements equal to
	// bounds[j], and rr[j] is that band's round-robin cursor.
	bounds []T
	gap    []int
	eqLo   []int
	eqN    []int
	rr     []int

	// Keyed fast path: when the key codec is trusted, routing compares
	// cached key prefixes (plus full key bytes unless the prefix is the
	// whole key) instead of calling the comparator — which, unless the key
	// is total, still decides between an element and a splitter whose keys
	// tie.
	keyed   bool
	whole   bool // the prefix is the whole key (codec.PrefixIsKey)
	total   bool
	prefix  func(T) uint64
	appendK func([]byte, T) []byte
	bKeys   [][]byte
	bPre    []uint64
	kbuf    []byte
}

// newRouter picks S-1 splitters at the quantile ranks of the sample and
// builds the routing table. The sample is copied before Multiselect
// permutes it, because the caller replays it in original input order.
func newRouter[T any](sample []T, shards int, ops extsort.Ops[T], parallelism int) (*router[T], error) {
	scratch := make([]T, len(sample))
	copy(scratch, sample)
	qs := make([]float64, shards-1)
	for i := range qs {
		qs[i] = float64(i+1) / float64(shards)
	}
	ranks, at := sel.QuantileRanks(qs, int64(len(scratch)))
	if _, err := sel.Multiselect(scratch, ranks, ops.Less, parallelism); err != nil {
		return nil, err
	}
	bs := make([]T, shards-1)
	for i := range bs {
		bs[i] = scratch[ranks[at[i]]-1]
	}
	r := &router[T]{shards: shards, less: ops.Less}
	// Collapse comparator-equal splitters: distinct value j owns the tie
	// band of every shard slot it filled, and the gap below it routes to
	// the band's first shard.
	for i := 0; i < len(bs); {
		j := i + 1
		for j < len(bs) && !ops.Less(bs[i], bs[j]) {
			j++
		}
		r.bounds = append(r.bounds, bs[i])
		r.gap = append(r.gap, i)
		r.eqLo = append(r.eqLo, i)
		r.eqN = append(r.eqN, j-i)
		i = j
	}
	r.gap = append(r.gap, shards-1)
	r.rr = make([]int, len(r.bounds))
	if err := r.initKeyed(ops, sample); err != nil {
		return nil, err
	}
	return r, nil
}

// initKeyed enables prefix-compare routing when the sort over this input
// runs keyed — the extsort driver's own validation (Ops.Keyed), applied to
// the same leading elements of the input.
func (r *router[T]) initKeyed(ops extsort.Ops[T], sample []T) error {
	keyed, err := ops.Keyed(sample)
	if !keyed {
		return err
	}
	kc := ops.KeyCodec
	r.keyed = true
	r.whole = codec.PrefixIsKey(kc)
	r.total = kc.TotalKey()
	r.prefix = codec.PrefixFunc(kc)
	r.appendK = kc.AppendKey
	r.bKeys = make([][]byte, len(r.bounds))
	r.bPre = make([]uint64, len(r.bounds))
	for i, b := range r.bounds {
		k := kc.AppendKey(nil, b)
		r.bKeys[i] = k
		r.bPre[i] = codec.Prefix(k)
	}
	return nil
}

// route returns the shard for one element, advancing the tie cursor when
// the element equals a duplicated splitter value.
func (r *router[T]) route(e T) int {
	if r.keyed {
		return r.routeKeyed(e)
	}
	m := len(r.bounds)
	j := sort.Search(m, func(i int) bool { return r.less(e, r.bounds[i]) })
	if j > 0 && !r.less(r.bounds[j-1], e) {
		return r.tie(j - 1)
	}
	return r.gap[j]
}

// routeKeyed is route over normalized key bytes: the cached prefix decides
// when it is the whole key (codec.PrefixIsKey), and longer or var-width keys
// fall back to a memcmp only on prefix ties. Equal keys are equal elements
// under a total codec; under any other the comparator decides — the tie rule
// of the heaps and the merge — so a comparator that refines key ties still
// sees disjoint shard ranges.
func (r *router[T]) routeKeyed(e T) int {
	p := r.prefix(e)
	var k []byte
	if !r.whole {
		k = r.appendK(r.kbuf[:0], e)
		r.kbuf = k
	}
	// cmpKey orders e's key against splitter value i's.
	cmpKey := func(i int) int {
		switch {
		case p < r.bPre[i]:
			return -1
		case p > r.bPre[i]:
			return 1
		case r.whole:
			return 0
		}
		return bytes.Compare(k, r.bKeys[i])
	}
	m := len(r.bounds)
	j := sort.Search(m, func(i int) bool {
		c := cmpKey(i)
		return c < 0 || (c == 0 && !r.total && r.less(e, r.bounds[i]))
	})
	if j > 0 && cmpKey(j-1) == 0 && (r.total || !r.less(r.bounds[j-1], e)) {
		return r.tie(j - 1)
	}
	return r.gap[j]
}

// tie routes an element equal to splitter value j within its band.
func (r *router[T]) tie(j int) int {
	if r.eqN[j] == 1 {
		return r.eqLo[j]
	}
	s := r.eqLo[j] + r.rr[j]
	r.rr[j]++
	if r.rr[j] == r.eqN[j] {
		r.rr[j] = 0
	}
	return s
}
