package heap

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/record"
)

// The replacement-selection step — pop the top, tag the next input record
// against the popped one, push it — on a full queue of M items: the loop
// the rs and alternating generators spend their time in on the tree, and
// 2wrs on the double heap. keyed fills Item.Key the way codec.KeyRecord16
// does, so compares resolve on the integer pair; cmp leaves it zero, so
// every compare is a comparator call (the prefixModes of kernel_test.go).
// The three sizes are a heap inside L2 (2^14 × 32 B = 512 KB), at L2
// (2^16, 2 MB of 4) and far outside it (2^20, 32 MB).

var benchSizes = []int{1 << 14, 1 << 16, 1 << 20}

// benchInput is a fixed pseudo-random input, reused round-robin so the
// timed loop draws no random numbers.
func benchInput(n int) []record.Record {
	rng := rand.New(rand.NewSource(1))
	in := make([]record.Record, n)
	for i := range in {
		in[i] = record.Record{Key: rng.Int63() - 1<<62, Aux: uint64(i)}
	}
	return in
}

func eachBenchShape(b *testing.B, run func(b *testing.B, m int, prefix func(record.Record) uint64)) {
	for _, m := range benchSizes {
		for _, mode := range prefixModes {
			if mode.name == "coarse" {
				continue
			}
			b.Run(fmt.Sprintf("M=%d/%s", m, mode.name), func(b *testing.B) { run(b, m, mode.fn) })
		}
	}
}

func BenchmarkRSStepHeap(b *testing.B) {
	eachBenchShape(b, func(b *testing.B, m int, prefix func(record.Record) uint64) {
		in := benchInput(2 * m)
		h := New(m, false, record.Less)
		for _, r := range in[:m] {
			h.Push(Item[record.Record]{Rec: r, Key: prefix(r)})
		}
		run, next := 0, m
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if h.Peek().Run != run {
				run++
			}
			out := h.Pop()
			r := in[next]
			if next++; next == len(in) {
				next = 0
			}
			it := Item[record.Record]{Rec: r, Run: run, Key: prefix(r)}
			if record.Less(r, out.Rec) {
				it.Run = run + 1
			}
			h.Push(it)
		}
	})
}

// BenchmarkRSStepTree is BenchmarkRSStepHeap on the tree of losers: the
// same loop, sizes and key shapes, with the pop and push of a step fused
// into one Replace.
func BenchmarkRSStepTree(b *testing.B) {
	eachBenchShape(b, func(b *testing.B, m int, prefix func(record.Record) uint64) {
		in := benchInput(2 * m)
		t := NewTree(m, false, record.Less)
		for _, r := range in[:m] {
			t.Load(Item[record.Record]{Rec: r, Key: prefix(r)})
		}
		t.Build()
		run, next := 0, m
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := t.Top()
			if out.Run != run {
				run++
			}
			r := in[next]
			if next++; next == len(in) {
				next = 0
			}
			it := Item[record.Record]{Rec: r, Run: run, Key: prefix(r)}
			if record.Less(r, out.Rec) {
				it.Run = run + 1
			}
			t.Replace(it)
		}
	})
}

func BenchmarkRSStepDoubleHeap(b *testing.B) {
	eachBenchShape(b, func(b *testing.B, m int, prefix func(record.Record) uint64) {
		in := benchInput(2 * m)
		d := NewDouble(m, record.Less)
		// Records at or above zero live in the TopHeap, the rest in the
		// BottomHeap: each side is a replacement selection of its own over
		// half the key range, sharing the arena as 2WRS does.
		push := func(it Item[record.Record]) {
			if it.Rec.Key >= 0 {
				d.PushTop(it)
			} else {
				d.PushBottom(it)
			}
		}
		for _, r := range in[:m] {
			push(Item[record.Record]{Rec: r, Key: prefix(r)})
		}
		// lastTop and lastBot are the run's output frontiers: a record that
		// falls behind its side's frontier waits for the next run.
		run, next := 0, m
		lastTop, lastBot := int64(math.MinInt64), int64(math.MaxInt64)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			topOK := d.LenTop() > 0 && d.PeekTop().Run == run
			botOK := d.LenBottom() > 0 && d.PeekBottom().Run == run
			if !topOK && !botOK {
				run++
				lastTop, lastBot = math.MinInt64, math.MaxInt64
				topOK, botOK = d.LenTop() > 0, d.LenBottom() > 0
			}
			if topOK && (!botOK || i%2 == 0) {
				lastTop = d.PopTop().Rec.Key
			} else {
				lastBot = d.PopBottom().Rec.Key
			}
			r := in[next]
			if next++; next == len(in) {
				next = 0
			}
			it := Item[record.Record]{Rec: r, Run: run, Key: prefix(r)}
			if (r.Key >= 0 && r.Key < lastTop) || (r.Key < 0 && r.Key > lastBot) {
				it.Run = run + 1
			}
			push(it)
		}
	})
}
