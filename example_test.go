package repro_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"repro"
)

// errEOF is what a Source returns at end of stream.
var errEOF = io.EOF

// The generic constructor: a comparator plus options. Codecs for common
// element types (here string) are inferred; the run-generation policy
// defaults to "auto".
func ExampleNew() {
	s, err := repro.New(func(a, b string) bool { return a < b },
		repro.WithMemoryRecords(1024))
	if err != nil {
		panic(err)
	}
	sorted, _, err := s.SortSlice(context.Background(), []string{"pear", "apple", "quince", "fig"})
	if err != nil {
		panic(err)
	}
	fmt.Println(sorted)
	// Output: [apple fig pear quince]
}

// Selecting a fixed run-generation policy by name. Classic replacement
// selection collapses an already-ascending stream into a single run.
func ExampleWithPolicy() {
	in := make([]int64, 10000)
	for i := range in {
		in[i] = int64(i)
	}
	s, err := repro.New(func(a, b int64) bool { return a < b },
		repro.WithPolicy("rs"),
		repro.WithMemoryRecords(512))
	if err != nil {
		panic(err)
	}
	_, stats, err := s.SortSlice(context.Background(), in)
	if err != nil {
		panic(err)
	}
	fmt.Printf("policy=%s runs=%d\n", stats.Policy, stats.Runs)
	// Output: policy=rs runs=1
}

// TopK with k within the memory budget never sorts: a bounded max-heap
// selects the k smallest in one pass and nothing spills.
func ExampleSorter_TopK() {
	in := []int64{42, 7, 19, 3, 88, 1, 56, 23}
	s, err := repro.New(func(a, b int64) bool { return a < b })
	if err != nil {
		panic(err)
	}
	var out sliceSink[int64]
	stats, err := s.TopK(context.Background(), sliceSource(in), 3, &out)
	if err != nil {
		panic(err)
	}
	fmt.Println(out.vals, "sorted externally:", stats.Sorted)
	// Output: [1 3 7] sorted externally: false
}

// Select finds one order statistic — here the median — without sorting:
// within the memory budget a dualheap partition places the k smallest
// below a pivot and the answer is the bottom heap's root.
func ExampleSorter_Select() {
	in := []int64{42, 7, 19, 3, 88, 1, 56, 23, 61}
	s, err := repro.New(func(a, b int64) bool { return a < b })
	if err != nil {
		panic(err)
	}
	median, stats, err := s.Select(context.Background(), sliceSource(in), 5)
	if err != nil {
		panic(err)
	}
	fmt.Println("median:", median, "sorted externally:", stats.Sorted)
	// Output: median: 23 sorted externally: false
}

// Quantiles returns several order statistics in one multiselect pass: the
// array is partitioned recursively at the middle remaining rank, so
// p50/p90/p99 together cost far less than a sort.
func ExampleSorter_Quantiles() {
	in := make([]int64, 1000)
	for i := range in {
		in[i] = int64((i * 7919) % 1000) // a permutation of 0..999
	}
	s, err := repro.New(func(a, b int64) bool { return a < b },
		repro.WithMemoryRecords(2048))
	if err != nil {
		panic(err)
	}
	vals, _, err := s.Quantiles(context.Background(), sliceSource(in), []float64{0.5, 0.9, 0.99})
	if err != nil {
		panic(err)
	}
	fmt.Println("p50:", vals[0], "p90:", vals[1], "p99:", vals[2])
	// Output: p50: 499 p90: 899 p99: 989
}

// BottomK mirrors TopK through the same direction-parameterized selection
// core: a bounded min-heap keeps the k largest, ascending on output.
func ExampleSorter_BottomK() {
	in := []int64{42, 7, 19, 3, 88, 1, 56, 23}
	s, err := repro.New(func(a, b int64) bool { return a < b })
	if err != nil {
		panic(err)
	}
	var out sliceSink[int64]
	if _, err := s.BottomK(context.Background(), sliceSource(in), 3, &out); err != nil {
		panic(err)
	}
	fmt.Println(out.vals)
	// Output: [42 56 88]
}

// Distinct emits one element per equivalence class of the comparator, in
// ascending order.
func ExampleSorter_Distinct() {
	in := []int64{5, 3, 5, 1, 3, 3, 1}
	s, err := repro.New(func(a, b int64) bool { return a < b })
	if err != nil {
		panic(err)
	}
	var out sliceSink[int64]
	if _, err := s.Distinct(context.Background(), sliceSource(in), &out); err != nil {
		panic(err)
	}
	fmt.Println(out.vals)
	// Output: [1 3 5]
}

// GroupBy folds each run of same-key elements into one: here, summing the
// Aux payloads of records sharing a key.
func ExampleSorter_GroupBy() {
	in := []repro.Record{
		{Key: 2, Aux: 10}, {Key: 1, Aux: 1}, {Key: 2, Aux: 5}, {Key: 1, Aux: 2},
	}
	s, err := repro.New(func(a, b repro.Record) bool { return a.Key < b.Key })
	if err != nil {
		panic(err)
	}
	reduce := func(acc, v repro.Record) repro.Record { acc.Aux += v.Aux; return acc }
	var out sliceSink[repro.Record]
	st, err := s.GroupBy(context.Background(), sliceSource(in), nil, reduce, &out)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%v groups=%d\n", out.vals, st.Groups)
	// Output: [{1/3} {2/15}] groups=2
}

// MergeJoin externally sorts both inputs and inner-joins them on a
// cross-type comparator.
func ExampleMergeJoin() {
	users := []repro.Record{{Key: 1, Aux: 100}, {Key: 2, Aux: 200}}
	orders := []repro.Record{{Key: 2, Aux: 7}, {Key: 1, Aux: 3}, {Key: 2, Aux: 8}}
	byKey := func(a, b repro.Record) bool { return a.Key < b.Key }
	ls, err := repro.New(byKey)
	if err != nil {
		panic(err)
	}
	rs, err := repro.New(byKey)
	if err != nil {
		panic(err)
	}
	cmp := func(l, r repro.Record) int {
		switch {
		case l.Key < r.Key:
			return -1
		case l.Key > r.Key:
			return 1
		}
		return 0
	}
	join := func(l, r repro.Record) repro.Record { return repro.Record{Key: l.Key, Aux: l.Aux + r.Aux} }
	var out sliceSink[repro.Record]
	st, err := repro.MergeJoin(context.Background(), ls, sliceSource(users), rs, sliceSource(orders), cmp, join, &out)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%v pairs=%d\n", out.vals, st.Out)
	// Output: [{1/103} {2/207} {2/208}] pairs=3
}

// The paper's fixed 16-byte records sort by key under Record.Less, here
// with the paper's recommended configuration (DefaultConfig: 2WRS, fan-in
// 10, both auxiliary buffers).
func ExampleSorter_SortSlice() {
	s, err := repro.New(repro.Record.Less, repro.WithConfig(repro.DefaultConfig(1000)))
	if err != nil {
		panic(err)
	}
	recs := []repro.Record{{Key: 9}, {Key: 4}, {Key: 7}}
	sorted, stats, err := s.SortSlice(context.Background(), recs)
	if err != nil {
		panic(err)
	}
	fmt.Println(sorted[0].Key, sorted[1].Key, sorted[2].Key, "records:", stats.Records)
	// Output: 4 7 9 records: 3
}

// sliceSource adapts a slice to the Source interface for the examples.
type sliceReader[T any] struct {
	vals []T
	pos  int
}

func sliceSource[T any](vals []T) *sliceReader[T] { return &sliceReader[T]{vals: vals} }

func (s *sliceReader[T]) Read() (T, error) {
	if s.pos >= len(s.vals) {
		var zero T
		return zero, errEOF
	}
	v := s.vals[s.pos]
	s.pos++
	return v, nil
}

// sliceSink collects written elements for the examples.
type sliceSink[T any] struct{ vals []T }

func (s *sliceSink[T]) Write(v T) error { s.vals = append(s.vals, v); return nil }

// event is the element type of ExampleWithKeyCodec: ordered by host, then
// timestamp.
type event struct {
	Host string
	TS   int64
}

// eventCodec spills events as a length-prefixed host plus the timestamp.
type eventCodec struct{}

func (eventCodec) Append(buf []byte, v event) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v.Host)))
	buf = append(buf, v.Host...)
	return binary.LittleEndian.AppendUint64(buf, uint64(v.TS))
}

func (eventCodec) Decode(buf []byte) (event, int, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 || len(buf) < used+int(n)+8 {
		return event{}, 0, repro.ErrShortCodec
	}
	host := string(buf[used : used+int(n)])
	ts := int64(binary.LittleEndian.Uint64(buf[used+int(n):]))
	return event{Host: host, TS: ts}, used + int(n) + 8, nil
}

func (eventCodec) FixedSize() int { return 0 }

// Supplying normalized key bytes for a custom element type. The composite
// codec concatenates memcmp-ordered fields (an escaped variable-width
// string, then a sign-flipped big-endian int64), which moves the sort's
// hot comparisons off the comparator and onto cached integer prefixes;
// Stats.Keyed confirms the keyed path engaged. The comparator stays
// authoritative — output is byte-identical either way.
func ExampleWithKeyCodec() {
	less := func(a, b event) bool {
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		return a.TS < b.TS
	}
	kc, err := repro.CompositeKeyCodec[event](0, true,
		func(buf []byte, v event) []byte { return repro.AppendKeyString(buf, v.Host) },
		func(buf []byte, v event) []byte { return repro.AppendKeyInt64(buf, v.TS) },
	)
	if err != nil {
		panic(err)
	}
	s, err := repro.New(less,
		repro.WithMemoryRecords(1024),
		repro.WithCodec[event](eventCodec{}),
		repro.WithKeyCodec(kc))
	if err != nil {
		panic(err)
	}
	in := []event{{"web-2", 7}, {"web-1", 9}, {"web-2", 3}, {"db-1", 5}}
	sorted, stats, err := s.SortSlice(context.Background(), in)
	if err != nil {
		panic(err)
	}
	fmt.Println("keyed:", stats.Keyed)
	for _, e := range sorted {
		fmt.Printf("%s@%d\n", e.Host, e.TS)
	}
	// Output:
	// keyed: true
	// db-1@5
	// web-1@9
	// web-2@3
	// web-2@7
}
