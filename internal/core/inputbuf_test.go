package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/record"
	"repro/internal/stream"
)

func TestInputBufferPassThrough(t *testing.T) {
	src := stream.NewSliceReader(record.FromKeys(3, 1, 2))
	b := newInputBuffer(src, 0, 64, record.Key, false, record.Less)
	err := b.fill()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.mean(); ok {
		t.Fatal("pass-through buffer should have no mean")
	}
	if _, ok := b.median(); ok {
		t.Fatal("pass-through buffer should have no median")
	}
	var got []int64
	for {
		rec, ok, err := b.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, rec.Key)
	}
	want := []int64{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestInputBufferFIFOOrder(t *testing.T) {
	src := stream.NewSliceReader(record.FromKeys(10, 20, 30, 40, 50))
	b := newInputBuffer(src, 3, 64, record.Key, false, record.Less)
	err := b.fill()
	if err != nil {
		t.Fatal(err)
	}
	// Pre-filled with {10,20,30}: mean 20.
	if m, ok := b.mean(); !ok || m != 20 {
		t.Fatalf("mean = (%v, %v), want (20, true)", m, ok)
	}
	rec, ok, _ := b.next()
	if !ok || rec.Key != 10 {
		t.Fatalf("first = %v, want key 10", rec)
	}
	// Refilled with 40: contents {20,30,40}, mean 30.
	if m, _ := b.mean(); m != 30 {
		t.Fatalf("mean after refill = %v, want 30", m)
	}
	for _, want := range []int64{20, 30, 40, 50} {
		rec, ok, _ := b.next()
		if !ok || rec.Key != want {
			t.Fatalf("next = (%v, %v), want key %d", rec, ok, want)
		}
	}
	if _, ok, _ := b.next(); ok {
		t.Fatal("expected end of input")
	}
	if _, ok := b.mean(); ok {
		t.Fatal("drained buffer should have no mean")
	}
}

func TestInputBufferMedianTracking(t *testing.T) {
	src := stream.NewSliceReader(record.FromKeys(5, 1, 9, 3, 7))
	b := newInputBuffer(src, 3, 64, record.Key, true, record.Less)
	err := b.fill()
	if err != nil {
		t.Fatal(err)
	}
	// Contents {5,1,9}: lower median 5.
	if md, ok := b.median(); !ok || md.Key != 5 {
		t.Fatalf("median = (%v, %v), want (5, true)", md, ok)
	}
	b.next() // consume 5; contents {1,9,3}: median 3
	if md, _ := b.median(); md.Key != 3 {
		t.Fatalf("median = %v, want 3", md)
	}
	b.next() // consume 1; contents {9,3,7}: median 7
	if md, _ := b.median(); md.Key != 7 {
		t.Fatalf("median = %v, want 7", md)
	}
}

func TestInputBufferShorterThanCapacity(t *testing.T) {
	src := stream.NewSliceReader(record.FromKeys(1, 2))
	b := newInputBuffer(src, 10, 64, record.Key, false, record.Less)
	err := b.fill()
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := b.mean(); !ok || m != 1.5 {
		t.Fatalf("mean = (%v, %v), want (1.5, true)", m, ok)
	}
	n := 0
	for {
		_, ok, _ := b.next()
		if !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("read %d records, want 2", n)
	}
}

func TestInputBufferEmptySource(t *testing.T) {
	b := newInputBuffer(stream.NewSliceReader[record.Record](nil), 4, 64, record.Key, true, record.Less)
	err := b.fill()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := b.next(); ok {
		t.Fatal("empty source should yield nothing")
	}
	if _, ok := b.mean(); ok {
		t.Fatal("empty buffer should have no mean")
	}
	if _, ok := b.median(); ok {
		t.Fatal("empty buffer should have no median")
	}
}

// TestInputBufferMedianProperty drives buffers through sequences of next
// and fill over random keys with many duplicates, mirroring the FIFO
// in a plain slice. Every median must be a live element equivalent to the
// lower median of a sorted copy of the mirror.
func TestInputBufferMedianProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		input := make([]record.Record, rng.Intn(300))
		distinct := 1 + rng.Intn(8)
		for i := range input {
			input[i] = record.Record{Key: int64(rng.Intn(distinct)), Aux: uint64(i)}
		}
		capacity := 1 + rng.Intn(40)
		b := newInputBuffer(stream.NewSliceReader(input), capacity, 64, nil, true, record.Less)
		var live []record.Record
		pos := 0
		fill := func() {
			if err := b.fill(); err != nil {
				t.Fatal(err)
			}
			for len(live) < capacity && pos < len(input) {
				live = append(live, input[pos])
				pos++
			}
		}
		fill()
		for step := 0; step < 2*len(input)+1; step++ {
			md, ok := b.median()
			if ok != (len(live) > 0) {
				t.Fatalf("trial %d step %d: median ok = %v with %d buffered", trial, step, ok, len(live))
			}
			if ok {
				sorted := slices.Clone(live)
				slices.SortStableFunc(sorted, func(x, y record.Record) int { return cmp.Compare(x.Key, y.Key) })
				if want := sorted[(len(sorted)-1)/2]; md.Key != want.Key {
					t.Fatalf("trial %d step %d: median key %d, want %d", trial, step, md.Key, want.Key)
				}
				if !slices.Contains(live, md) {
					t.Fatalf("trial %d step %d: median %v is not buffered", trial, step, md)
				}
			}
			rec, ok, err := b.next()
			if err != nil {
				t.Fatal(err)
			}
			if ok != (len(live) > 0) || ok && rec != live[0] {
				t.Fatalf("trial %d step %d: next = (%v, %v), want head of %v", trial, step, rec, ok, live)
			}
			if ok {
				live = live[1:]
				fill()
			}
		}
	}
}

// TestInputBufferMedianNaN runs the ordered slots under a comparator that
// is no strict weak order, float64 < with NaNs among the values: the FIFO
// must still hand back every element in arrival order.
func TestInputBufferMedianNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = float64(rng.Intn(10))
		if rng.Intn(4) == 0 {
			vals[i] = math.NaN()
		}
	}
	b := newInputBuffer(stream.NewSliceReader(vals), 16, 64, nil, true, func(x, y float64) bool { return x < y })
	if err := b.fill(); err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		b.median()
		got, ok, err := b.next()
		if err != nil || !ok || !(got == want || math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("element %d: next = (%v, %v, %v), want %v", i, got, ok, err, want)
		}
	}
	if _, ok, _ := b.next(); ok {
		t.Fatal("expected end of input")
	}
}

// The TestWindowMedian tests hold the median of the buffer's sliding
// window, the FIFO's contents, to small hand-checked cases.

func newInt64Buffer(keys []int64, capacity int) *inputBuffer[int64] {
	return newInputBuffer(stream.NewSliceReader(keys), capacity, 64, nil, true, func(a, b int64) bool { return a < b })
}

func TestWindowMedianBasic(t *testing.T) {
	for _, c := range []struct {
		keys []int64
		want int64
		ok   bool
	}{
		{nil, 0, false},
		{[]int64{5}, 5, true},
		{[]int64{5, 1}, 1, true}, // lower median
		{[]int64{5, 1, 9}, 5, true},
	} {
		b := newInt64Buffer(c.keys, 3)
		if err := b.fill(); err != nil {
			t.Fatal(err)
		}
		if md, ok := b.median(); ok != c.ok || md != c.want {
			t.Fatalf("median of %v = (%d, %v), want (%d, %v)", c.keys, md, ok, c.want, c.ok)
		}
	}
	b := newInt64Buffer([]int64{5, 1, 9}, 3)
	if err := b.fill(); err != nil {
		t.Fatal(err)
	}
	b.next() // remove the 5
	if md, _ := b.median(); md != 1 {
		t.Fatalf("lower median of {1,9} = %d, want 1", md)
	}
	if b.n != 2 || len(b.order) != 2 {
		t.Fatalf("n = %d, order %v, want 2 elements", b.n, b.order)
	}
}

func TestWindowMedianSlidingAgainstNaive(t *testing.T) {
	const window = 31
	rng := rand.New(rand.NewSource(9))
	keys := make([]int64, 2000)
	for i := range keys {
		keys[i] = rng.Int63n(1000) - 500
	}
	b := newInt64Buffer(keys, window)
	if err := b.fill(); err != nil {
		t.Fatal(err)
	}
	for step := range keys {
		live := slices.Clone(keys[step:min(step+window, len(keys))])
		slices.Sort(live)
		got, ok := b.median()
		if !ok {
			t.Fatalf("step %d: no median with %d keys", step, len(live))
		}
		if want := live[(len(live)-1)/2]; got != want {
			t.Fatalf("step %d: median = %d, want %d (window %v)", step, got, want, live)
		}
		if rec, ok, err := b.next(); err != nil || !ok || rec != keys[step] {
			t.Fatalf("step %d: next = (%d, %v, %v), want %d", step, rec, ok, err, keys[step])
		}
	}
}

func TestWindowMedianDuplicateKeys(t *testing.T) {
	b := newInt64Buffer([]int64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}, 10)
	if err := b.fill(); err != nil {
		t.Fatal(err)
	}
	if md, _ := b.median(); md != 7 {
		t.Fatalf("median of constant window = %d, want 7", md)
	}
	for i := 0; i < 9; i++ {
		b.next()
		if md, _ := b.median(); md != 7 {
			t.Fatalf("median after %d removals = %d, want 7", i+1, md)
		}
	}
}

func TestWindowMedianDrainCompletely(t *testing.T) {
	b := newInt64Buffer([]int64{0, 1, 2, 3, 4, 42}, 5)
	if err := b.fill(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if got := b.pop(); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	if b.n != 0 || len(b.order) != 0 {
		t.Fatalf("n = %d, order %v after draining, want empty", b.n, b.order)
	}
	if _, ok := b.median(); ok {
		t.Fatal("drained window should have no median")
	}
	// Reusable after draining.
	if err := b.fill(); err != nil {
		t.Fatal(err)
	}
	if md, _ := b.median(); md != 42 {
		t.Fatal("window unusable after draining")
	}
}
