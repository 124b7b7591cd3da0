package heap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/record"
)

func item(key int64, run int) Item[record.Record] {
	return Item[record.Record]{Rec: record.Record{Key: key}, Run: run}
}

func TestMinHeapPopsAscending(t *testing.T) {
	h := New(16, false, record.Less)
	keys := []int64{5, 3, 8, 1, 9, 2, 7, 4, 6, 0}
	for _, k := range keys {
		h.Push(item(k, 0))
		if !h.Valid() {
			t.Fatalf("heap invalid after pushing %d", k)
		}
	}
	for want := int64(0); want < 10; want++ {
		got := h.Pop()
		if got.Rec.Key != want {
			t.Fatalf("pop = %d, want %d", got.Rec.Key, want)
		}
		if !h.Valid() {
			t.Fatalf("heap invalid after popping %d", want)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("len = %d after draining, want 0", h.Len())
	}
}

func TestMaxHeapPopsDescending(t *testing.T) {
	h := New(16, true, record.Less)
	for _, k := range []int64{5, 3, 8, 1, 9} {
		h.Push(item(k, 0))
	}
	want := []int64{9, 8, 5, 3, 1}
	for _, w := range want {
		if got := h.Pop().Rec.Key; got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
}

func TestRunTagDominatesKey(t *testing.T) {
	// A huge key in the current run must still pop before a tiny key in the
	// next run — in both directions.
	min := New(4, false, record.Less)
	min.Push(item(1000, 0))
	min.Push(item(-1000, 1))
	if got := min.Pop(); got.Run != 0 || got.Rec.Key != 1000 {
		t.Fatalf("min heap popped %v, want current-run record", got)
	}

	max := New(4, true, record.Less)
	max.Push(item(-1000, 0))
	max.Push(item(1000, 1))
	if got := max.Pop(); got.Run != 0 || got.Rec.Key != -1000 {
		t.Fatalf("max heap popped %v, want current-run record", got)
	}
}

func TestPushFullPanics(t *testing.T) {
	h := New(1, false, record.Less)
	h.Push(item(1, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on full push")
		}
	}()
	h.Push(item(2, 0))
}

func TestPopEmptyPanics(t *testing.T) {
	h := New(1, false, record.Less)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty pop")
		}
	}()
	h.Pop()
}

func TestPeekDoesNotRemove(t *testing.T) {
	h := New(4, false, record.Less)
	h.Push(item(2, 0))
	h.Push(item(1, 0))
	if h.Peek().Rec.Key != 1 || h.Len() != 2 {
		t.Fatal("peek should return min without removing")
	}
}

func TestReset(t *testing.T) {
	h := New(4, false, record.Less)
	h.Push(item(1, 0))
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("reset should empty the heap")
	}
	h.Push(item(2, 0))
	if h.Peek().Rec.Key != 2 {
		t.Fatal("heap unusable after reset")
	}
}

func TestNewZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero capacity")
		}
	}()
	New(0, false, record.Less)
}

func TestHeapQuickSortedDrain(t *testing.T) {
	f := func(keys []int64) bool {
		if len(keys) == 0 {
			return true
		}
		h := New(len(keys), false, record.Less)
		for _, k := range keys {
			h.Push(item(k, 0))
		}
		prev := h.Pop().Rec.Key
		for h.Len() > 0 {
			next := h.Pop().Rec.Key
			if next < prev {
				return false
			}
			prev = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDoubleHeapBasics(t *testing.T) {
	d := NewDouble(8, record.Less)
	if d.Cap() != 8 || d.Len() != 0 || d.Full() {
		t.Fatal("fresh double heap state wrong")
	}
	d.PushTop(item(10, 0))
	d.PushTop(item(5, 0))
	d.PushBottom(item(-10, 0))
	d.PushBottom(item(-5, 0))
	if d.LenTop() != 2 || d.LenBottom() != 2 || d.Len() != 4 {
		t.Fatalf("sizes top=%d bottom=%d", d.LenTop(), d.LenBottom())
	}
	if d.PeekTop().Rec.Key != 5 {
		t.Fatalf("top peek = %d, want 5", d.PeekTop().Rec.Key)
	}
	if d.PeekBottom().Rec.Key != -5 {
		t.Fatalf("bottom peek = %d, want -5", d.PeekBottom().Rec.Key)
	}
	if !d.Valid() {
		t.Fatal("double heap invalid")
	}
}

func TestDoubleHeapSharedCapacity(t *testing.T) {
	d := NewDouble(4, record.Less)
	d.PushTop(item(1, 0))
	d.PushTop(item(2, 0))
	d.PushTop(item(3, 0))
	d.PushBottom(item(0, 0))
	if !d.Full() {
		t.Fatal("should be full at 4 items")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic pushing into full double heap")
		}
	}()
	d.PushBottom(item(-1, 0))
}

func TestDoubleHeapOneSideCanTakeAll(t *testing.T) {
	// §4.1: "If the TopHeap grows to occupy the whole memory while the
	// BottomHeap is kept at size 0, the algorithm is equivalent to RS."
	d := NewDouble(32, record.Less)
	for i := 0; i < 32; i++ {
		d.PushTop(item(int64(31-i), 0))
	}
	if d.LenTop() != 32 || d.LenBottom() != 0 {
		t.Fatal("top heap should occupy everything")
	}
	for want := int64(0); want < 32; want++ {
		if got := d.PopTop().Rec.Key; got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
	}
}

func TestDoubleHeapGrowShrinkInterleaved(t *testing.T) {
	// One heap grows at the expense of the other, as in Figures 4.4/4.5.
	d := NewDouble(6, record.Less)
	for i := 0; i < 3; i++ {
		d.PushBottom(item(int64(-i), 0))
		d.PushTop(item(int64(100+i), 0))
	}
	// Remove from bottom, add to top: top may now exceed half the arena.
	d.PopBottom()
	d.PushTop(item(99, 0))
	if d.LenTop() != 4 || d.LenBottom() != 2 {
		t.Fatalf("top=%d bottom=%d, want 4/2", d.LenTop(), d.LenBottom())
	}
	if !d.Valid() {
		t.Fatal("double heap invalid after rebalancing")
	}
	if d.PeekTop().Rec.Key != 99 {
		t.Fatalf("top peek = %d, want 99", d.PeekTop().Rec.Key)
	}
}

func TestDoubleHeapRandomizedBothSidesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d := NewDouble(128, record.Less)
	var topKeys, bottomKeys []int64
	for i := 0; i < 128; i++ {
		k := rng.Int63n(10000) - 5000
		if k >= 0 {
			d.PushTop(item(k, 0))
			topKeys = append(topKeys, k)
		} else {
			d.PushBottom(item(k, 0))
			bottomKeys = append(bottomKeys, k)
		}
		if !d.Valid() {
			t.Fatalf("invalid after %d pushes", i+1)
		}
	}
	sort.Slice(topKeys, func(i, j int) bool { return topKeys[i] < topKeys[j] })
	for _, want := range topKeys {
		if got := d.PopTop().Rec.Key; got != want {
			t.Fatalf("top pop = %d, want %d", got, want)
		}
	}
	sort.Slice(bottomKeys, func(i, j int) bool { return bottomKeys[i] > bottomKeys[j] })
	for _, want := range bottomKeys {
		if got := d.PopBottom().Rec.Key; got != want {
			t.Fatalf("bottom pop = %d, want %d", got, want)
		}
	}
}

func TestDoubleHeapPanics(t *testing.T) {
	d := NewDouble(2, record.Less)
	for name, fn := range map[string]func(){
		"pop top empty":     func() { d.PopTop() },
		"pop bottom empty":  func() { d.PopBottom() },
		"peek top empty":    func() { d.PeekTop() },
		"peek bottom empty": func() { d.PeekBottom() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDoubleHeapReset(t *testing.T) {
	d := NewDouble(4, record.Less)
	d.PushTop(item(1, 0))
	d.PushBottom(item(-1, 0))
	d.Reset()
	if d.Len() != 0 {
		t.Fatal("reset should empty both heaps")
	}
	d.PushTop(item(2, 0))
	if d.PeekTop().Rec.Key != 2 {
		t.Fatal("double heap unusable after reset")
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	h := New(1024, false, record.Less)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1024; i++ {
		h.Push(item(rng.Int63(), 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := h.Pop()
		it.Rec.Key = rng.Int63()
		h.Push(it)
	}
}

func BenchmarkDoubleHeapPushPop(b *testing.B) {
	d := NewDouble(1024, record.Less)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 512; i++ {
		d.PushTop(item(rng.Int63n(1<<30), 0))
		d.PushBottom(item(-rng.Int63n(1<<30), 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			it := d.PopTop()
			it.Rec.Key = rng.Int63n(1 << 30)
			d.PushTop(it)
		} else {
			it := d.PopBottom()
			it.Rec.Key = -rng.Int63n(1 << 30)
			d.PushBottom(it)
		}
	}
}
