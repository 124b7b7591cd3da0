package distsort

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// FuzzShardPartition checks the routing invariants that the whole sharded
// design rests on, for arbitrary inputs and shard counts, over fixed-width
// integers and over their variable-length decimal renderings:
//
//   - totality: every element routes to exactly one shard in [0, S)
//   - order: the shards partition the key space into non-overlapping,
//     ascending ranges (max of shard i never exceeds min of shard i+1),
//     so concatenating shard outputs in splitter order is a sorted stream
func FuzzShardPartition(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, uint8(4))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 2}, uint8(2))
	f.Add([]byte("all equal all equal all equal all equal "), uint8(8))
	f.Add([]byte{}, uint8(3))
	f.Add([]byte{9}, uint8(16))

	f.Fuzz(func(t *testing.T, data []byte, s uint8) {
		shards := 2 + int(s)%15
		var keys []int64
		for i := 0; i+8 <= len(data); i += 8 {
			keys = append(keys, int64(binary.BigEndian.Uint64(data[i:i+8])))
		}
		for i := 0; i < len(data)%8; i++ {
			keys = append(keys, int64(data[len(data)-1-i]))
		}
		if len(keys) == 0 {
			return
		}
		strs := make([]string, len(keys))
		for i, k := range keys {
			strs[i] = fmt.Sprintf("%d", uint64(k))
		}
		checkRouting(t, keys, shards, func(a, b int64) bool { return a < b })
		checkRouting(t, strs, shards, func(a, b string) bool { return a < b })
	})
}

// checkRouting builds a router over elems, routes every element through it
// and verifies totality and range disjointness.
func checkRouting[T any](t *testing.T, elems []T, shards int, less func(a, b T) bool) {
	t.Helper()
	rt, err := newRouter(elems, shards, less, 1)
	if err != nil {
		t.Fatalf("newRouter: %v", err)
	}
	counts := make([]int64, shards)
	mins := make([]T, shards)
	maxs := make([]T, shards)
	for idx, e := range elems {
		i := rt.route(e)
		if i < 0 || i >= shards {
			t.Fatalf("elem %d routed to shard %d of %d", idx, i, shards)
		}
		if counts[i] == 0 {
			mins[i], maxs[i] = e, e
		} else {
			if less(e, mins[i]) {
				mins[i] = e
			}
			if less(maxs[i], e) {
				maxs[i] = e
			}
		}
		counts[i]++
	}
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != int64(len(elems)) {
		t.Fatalf("routed %d of %d elements", sum, len(elems))
	}
	// Non-overlap: shard i's max never exceeds a later shard's min.
	prev := -1
	for i := 0; i < shards; i++ {
		if counts[i] == 0 {
			continue
		}
		if prev >= 0 && less(mins[i], maxs[prev]) {
			t.Fatalf("shard ranges overlap: shard %d min < shard %d max", i, prev)
		}
		prev = i
	}
}
