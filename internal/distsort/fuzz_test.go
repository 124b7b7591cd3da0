package distsort

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/extsort"
)

// FuzzShardPartition checks the routing invariants that the whole sharded
// design rests on, for arbitrary inputs and shard counts:
//
//   - totality: every element routes to exactly one shard in [0, S)
//   - order: the shards partition the key space into non-overlapping,
//     ascending ranges (max of shard i never exceeds min of shard i+1),
//     so concatenating shard outputs in splitter order is a sorted stream
//   - agreement: the keyed fast path (both the fixed-8 prefix-only
//     variant and the var-width prefix+memcmp variant) routes every
//     element to the same shard as the comparator path
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

		intLess := func(a, b int64) bool { return a < b }
		cmpOps := extsort.Ops[int64]{Less: intLess, Codec: codec.Int64{}}
		keyOps := extsort.Ops[int64]{
			Less: intLess, Codec: codec.Int64{},
			KeyCodec: codec.KeyInt64{}, KeyedExplicit: true,
		}

		cmpRt, err := newRouter(keys, shards, cmpOps, 1)
		if err != nil {
			t.Fatalf("comparator router: %v", err)
		}
		keyRt, err := newRouter(keys, shards, keyOps, 1)
		if err != nil {
			t.Fatalf("keyed router: %v", err)
		}
		if !keyRt.keyed || !keyRt.whole {
			t.Fatal("explicit KeyInt64 codec did not enable the fixed-8 fast path")
		}

		// Var-width variant over the decimal rendering of the same keys:
		// unequal-length strings exercise the prefix-tie memcmp branch.
		strs := make([]string, len(keys))
		for i, k := range keys {
			strs[i] = fmt.Sprintf("%d", uint64(k))
		}
		strLess := func(a, b string) bool { return a < b }
		strCmp, err := newRouter(strs, shards, extsort.Ops[string]{Less: strLess, Codec: codec.String{}}, 1)
		if err != nil {
			t.Fatalf("string comparator router: %v", err)
		}
		strKey, err := newRouter(strs, shards, extsort.Ops[string]{
			Less: strLess, Codec: codec.String{},
			KeyCodec: codec.KeyString{}, KeyedExplicit: true,
		}, 1)
		if err != nil {
			t.Fatalf("string keyed router: %v", err)
		}
		if !strKey.keyed || strKey.whole {
			t.Fatal("explicit KeyString codec did not enable the var-width fast path")
		}

		checkRouting(t, keys, shards, cmpRt, keyRt, intLess)
		checkRouting(t, strs, shards, strCmp, strKey, strLess)
	})
}

// checkRouting routes every element through both routers and verifies
// totality, keyed/comparator agreement, and range disjointness.
func checkRouting[T any](t *testing.T, elems []T, shards int, cmpRt, keyRt *router[T], less func(a, b T) bool) {
	t.Helper()
	counts := make([]int64, shards)
	mins := make([]T, shards)
	maxs := make([]T, shards)
	for idx, e := range elems {
		i := cmpRt.route(e)
		if i < 0 || i >= shards {
			t.Fatalf("elem %d routed to shard %d of %d", idx, i, shards)
		}
		if j := keyRt.route(e); j != i {
			t.Fatalf("elem %d: keyed route %d != comparator route %d", idx, j, i)
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

// TestRouterShortFixedKeyIsWholeKey: a fixed key shorter than the cached word
// is as much "the whole key" as an 8-byte one (codec.PrefixIsKey, the rule the
// merge tree and the quick stepper apply too). A 4-byte Composite key routes
// every element where the comparator router does, and materialises no key
// bytes to do it: the one AppendKey per element is the prefix's own —
// Composite has no KeyPrefix — where spelling the rule as "FixedKeySize() == 8"
// paid a second one and a bytes.Compare per probe.
func TestRouterShortFixedKeyIsWholeKey(t *testing.T) {
	appends := 0
	kc := codec.Composite[uint64]{
		Fields: []func([]byte, uint64) []byte{func(buf []byte, v uint64) []byte {
			appends++
			return binary.BigEndian.AppendUint32(buf, uint32(v))
		}},
		Fixed: 4, Total: true,
	}
	less := func(a, b uint64) bool { return a < b }
	vals := make([]uint64, 5000) // all below 2^32: the low four bytes are the element
	for i := range vals {
		vals[i] = uint64(uint32(i*2654435761) >> 12) // duplicates, over a 20-bit range
	}
	const shards = 7
	cmpRt, err := newRouter(vals, shards, extsort.Ops[uint64]{Less: less, Codec: codec.Uint64{}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	keyRt, err := newRouter(vals, shards, extsort.Ops[uint64]{Less: less, Codec: codec.Uint64{}, KeyCodec: kc, KeyedExplicit: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !keyRt.keyed || !keyRt.whole {
		t.Fatalf("4-byte fixed key: keyed=%v whole=%v, want the whole-key fast path", keyRt.keyed, keyRt.whole)
	}
	appends = 0
	checkRouting(t, vals, shards, cmpRt, keyRt, less)
	if appends != len(vals) {
		t.Fatalf("routing %d elements called AppendKey %d times, want one each (the prefix)", len(vals), appends)
	}
}
