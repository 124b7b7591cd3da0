package distsort

import (
	"sort"

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
}

// newRouter picks S-1 splitters at the quantile ranks of the sample and
// builds the routing table. The sample is copied before Multiselect
// permutes it, because the caller replays it in original input order.
func newRouter[T any](sample []T, shards int, less func(a, b T) bool, parallelism int) (*router[T], error) {
	scratch := make([]T, len(sample))
	copy(scratch, sample)
	qs := make([]float64, shards-1)
	for i := range qs {
		qs[i] = float64(i+1) / float64(shards)
	}
	ranks, at := sel.QuantileRanks(qs, int64(len(scratch)))
	if _, err := sel.Multiselect(scratch, ranks, less, parallelism); err != nil {
		return nil, err
	}
	bs := make([]T, shards-1)
	for i := range bs {
		bs[i] = scratch[ranks[at[i]]-1]
	}
	r := &router[T]{shards: shards, less: less}
	// Collapse comparator-equal splitters: distinct value j owns the tie
	// band of every shard slot it filled, and the gap below it routes to
	// the band's first shard.
	for i := 0; i < len(bs); {
		j := i + 1
		for j < len(bs) && !less(bs[i], bs[j]) {
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
	return r, nil
}

// route returns the shard for one element, advancing the tie cursor when
// the element equals a duplicated splitter value.
func (r *router[T]) route(e T) int {
	m := len(r.bounds)
	j := sort.Search(m, func(i int) bool { return r.less(e, r.bounds[i]) })
	if j > 0 && !r.less(r.bounds[j-1], e) {
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
