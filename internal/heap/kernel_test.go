package heap

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/record"
)

// oracle is the sort-based model the sift kernels are checked against: the
// items pushed so far, kept sorted by priority — run tag, then record.Less
// in the side's direction — by binary-search insertion. Every item carries
// a unique non-zero Aux, so a pop can be matched to the exact item pushed:
// a pad slot, a stale vacated slot or an item with its key prefix left
// flipped would match nothing.
type oracle struct {
	t     testing.TB
	desc  bool
	items []Item[record.Record]
}

// cmp orders two items by priority; zero means the heap may release either
// first.
func (o *oracle) cmp(a, b Item[record.Record]) int {
	if a.Run != b.Run {
		return a.Run - b.Run
	}
	c := record.Compare(a.Rec, b.Rec)
	if o.desc {
		return -c
	}
	return c
}

func (o *oracle) push(it Item[record.Record]) {
	i := sort.Search(len(o.items), func(i int) bool { return o.cmp(o.items[i], it) > 0 })
	o.items = append(o.items, it)
	copy(o.items[i+1:], o.items[i:])
	o.items[i] = it
}

// find returns the position of got among the items tied for the highest
// priority, failing the test if it is not one of them.
func (o *oracle) find(what string, got Item[record.Record]) int {
	o.t.Helper()
	for i := 0; i < len(o.items) && o.cmp(o.items[i], o.items[0]) == 0; i++ {
		if o.items[i] == got {
			return i
		}
	}
	o.t.Fatalf("%s returned %+v, which is not a highest-priority item pushed earlier (model top %+v, %d held)",
		what, got, o.items[0], len(o.items))
	return -1
}

func (o *oracle) peek(got Item[record.Record]) { o.t.Helper(); o.find("peek", got) }

func (o *oracle) pop(got Item[record.Record]) {
	o.t.Helper()
	i := o.find("pop", got)
	o.items = append(o.items[:i], o.items[i+1:]...)
}

// prefixModes are the three ways callers fill Item.Key: the full
// order-preserving prefix of the keyed generators, a coarser one that
// leaves the low bits to the comparator, and all zero (comparator only).
var prefixModes = []struct {
	name string
	fn   func(record.Record) uint64
}{
	{"keyed", func(r record.Record) uint64 { return uint64(r.Key) ^ (1 << 63) }},
	{"coarse", func(r record.Record) uint64 { return (uint64(r.Key) ^ (1 << 63)) &^ 3 }},
	{"cmp", func(record.Record) uint64 { return 0 }},
}

// itemSource deals items with unique Aux, keys drawn from a range of the
// given width (narrow: heavy ties) around zero, and run tags that wander
// upward the way a generator's do.
type itemSource struct {
	rng    *rand.Rand
	width  int64
	prefix func(record.Record) uint64
	run    int
	next   uint64
}

func (s *itemSource) item() Item[record.Record] {
	s.next++
	if s.rng.Intn(64) == 0 {
		s.run++
	}
	r := record.Record{Key: s.rng.Int63n(s.width) - s.width/2, Aux: s.next}
	return Item[record.Record]{Rec: r, Run: s.run + s.rng.Intn(2), Key: s.prefix(r)}
}

var kernelSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 129, 255, 256, 1023, 1025, 4095, 4096, 4097}

func eachKernelShape(t *testing.T, run func(t *testing.T, size int, src *itemSource)) {
	for _, mode := range prefixModes {
		for _, width := range []int64{1 << 40, 8} {
			t.Run(fmt.Sprintf("%s/width=%d", mode.name, width), func(t *testing.T) {
				for _, size := range kernelSizes {
					if testing.Short() && size > 1025 {
						continue
					}
					run(t, size, &itemSource{rng: rand.New(rand.NewSource(int64(size))), width: width, prefix: mode.fn})
				}
			})
		}
	}
}

func TestHeapMatchesOracle(t *testing.T) {
	eachKernelShape(t, func(t *testing.T, size int, src *itemSource) {
		for _, desc := range []bool{false, true} {
			h := New(size, desc, record.Less)
			o := &oracle{t: t, desc: desc}
			push := func() {
				it := src.item()
				h.Push(it)
				o.push(it)
			}
			check := func() {
				if h.Len() != len(o.items) || h.Cap() != size || h.Full() != (len(o.items) == size) {
					t.Fatalf("size %d desc %v: Len %d Cap %d Full %v with %d items held", size, desc, h.Len(), h.Cap(), h.Full(), len(o.items))
				}
				if h.Len() > 0 {
					o.peek(h.Peek())
				}
			}
			for !h.Full() {
				push()
				check()
			}
			if !h.Valid() {
				t.Fatalf("size %d desc %v: invalid after fill", size, desc)
			}
			// Random walk between empty and full, then the RS step at
			// capacity, then a full drain.
			for op := 0; op < min(4*size, 6000); op++ {
				if h.Len() > 0 && (h.Full() || src.rng.Intn(2) == 0) {
					o.pop(h.Pop())
				} else {
					push()
				}
				check()
			}
			for !h.Full() {
				push()
			}
			for op := 0; op < min(2*size, 3000); op++ {
				o.pop(h.Pop())
				push()
				check()
			}
			if !h.Valid() {
				t.Fatalf("size %d desc %v: invalid after the walk", size, desc)
			}
			for h.Len() > 0 {
				o.pop(h.Pop())
				check()
			}
		}
	})
}

// doubleChecker drives a DoubleHeap and one oracle per side through the
// same operations. After a reimport, twin is the heap the current one was
// exported from: it takes every later operation too and must release the
// very same items, ties included.
type doubleChecker struct {
	t        testing.TB
	d, twin  *DoubleHeap[record.Record]
	capacity int
	top, bot oracle
}

func newDoubleChecker(t testing.TB, capacity int) *doubleChecker {
	return &doubleChecker{t: t, d: NewDouble(capacity, record.Less), capacity: capacity,
		top: oracle{t: t}, bot: oracle{t: t, desc: true}}
}

func (c *doubleChecker) pushTop(it Item[record.Record]) {
	c.d.PushTop(it)
	if c.twin != nil {
		c.twin.PushTop(it)
	}
	c.top.push(it)
	c.check()
}

func (c *doubleChecker) pushBottom(it Item[record.Record]) {
	c.d.PushBottom(it)
	if c.twin != nil {
		c.twin.PushBottom(it)
	}
	c.bot.push(it)
	c.check()
}

func (c *doubleChecker) popTop() {
	got := c.d.PopTop()
	if c.twin != nil {
		if want := c.twin.PopTop(); got != want {
			c.t.Fatalf("reimported TopHeap popped %+v, the heap it was exported from %+v", got, want)
		}
	}
	c.top.pop(got)
	c.check()
}

func (c *doubleChecker) popBottom() {
	got := c.d.PopBottom()
	if c.twin != nil {
		if want := c.twin.PopBottom(); got != want {
			c.t.Fatalf("reimported BottomHeap popped %+v, the heap it was exported from %+v", got, want)
		}
	}
	c.bot.pop(got)
	c.check()
}

// reimport replaces the heap under test with a fresh arena holding an
// Import of its Export, when every held item carries one run tag (the
// precondition a run boundary guarantees), and keeps the original as twin.
func (c *doubleChecker) reimport(prefix func(record.Record) uint64) {
	c.t.Helper()
	held := append(append([]Item[record.Record]{}, c.bot.items...), c.top.items...)
	for _, it := range held {
		if it.Run != held[0].Run {
			return
		}
	}
	if len(held) == 0 {
		return
	}
	var recs []record.Record
	c.d.Export(func(r record.Record) { recs = append(recs, r) })
	fresh := NewDouble(c.capacity, record.Less)
	nb := c.d.LenBottom()
	if err := fresh.Import(recs[:nb], recs[nb:], held[0].Run, prefix); err != nil {
		c.t.Fatalf("Import of an Export: %v", err)
	}
	c.twin, c.d = c.d, fresh
	c.check()
}

func (c *doubleChecker) check() {
	c.t.Helper()
	d, nt, nb := c.d, len(c.top.items), len(c.bot.items)
	if d.LenTop() != nt || d.LenBottom() != nb || d.Len() != nt+nb || d.Cap() != c.capacity || d.Full() != (nt+nb == c.capacity) {
		c.t.Fatalf("capacity %d: LenTop %d LenBottom %d Len %d Cap %d Full %v with %d+%d items held",
			c.capacity, d.LenTop(), d.LenBottom(), d.Len(), d.Cap(), d.Full(), nt, nb)
	}
	if nt > 0 {
		c.top.peek(d.PeekTop())
	}
	if nb > 0 {
		c.bot.peek(d.PeekBottom())
	}
}

func TestDoubleHeapMatchesOracle(t *testing.T) {
	eachKernelShape(t, func(t *testing.T, size int, src *itemSource) {
		c := newDoubleChecker(t, size)
		// The TopHeap takes the whole arena from its end, hands it to the
		// BottomHeap slot by slot until that fills it from the other end,
		// and then the two trade capacity at random.
		for !c.d.Full() {
			c.pushTop(src.item())
		}
		for c.d.LenTop() > 0 {
			c.popTop()
			c.pushBottom(src.item())
		}
		if !c.d.Valid() {
			t.Fatalf("capacity %d: invalid with the BottomHeap holding everything", size)
		}
		for op := 0; op < min(6*size, 8000); op++ {
			switch k := src.rng.Intn(4); {
			case k == 0 && !c.d.Full():
				c.pushTop(src.item())
			case k == 1 && !c.d.Full():
				c.pushBottom(src.item())
			case k == 2 && c.d.LenTop() > 0:
				c.popTop()
			case k == 3 && c.d.LenBottom() > 0:
				c.popBottom()
			case c.d.Full() && c.d.LenTop() > 0:
				c.popTop()
			case c.d.Full():
				c.popBottom()
			}
		}
		if !c.d.Valid() {
			t.Fatalf("capacity %d: invalid after the walk", size)
		}
		for c.d.LenTop() > 0 {
			c.popTop()
		}
		for c.d.LenBottom() > 0 {
			c.popBottom()
		}
	})
}

// FuzzDoubleHeapOps decodes one operation per byte: the low two bits pick
// push or pop on either side, the next three the key (eight values, so
// ties everywhere), the top three the run tag. The first byte sizes the
// arena (1..64) and picks the prefix mode.
func FuzzDoubleHeapOps(f *testing.F) {
	f.Add([]byte{3, 0x00, 0x01, 0x04, 0x05, 0x02, 0x03, 0x02, 0x03})
	f.Add([]byte{0, 0x00, 0x02, 0x01, 0x03})
	f.Add([]byte{0x48, 0x1c, 0x18, 0x14, 0x10, 0x0c, 0x08, 0x04, 0x00, 0x1c, 0x02, 0x02, 0x02, 0x02, 0x02, 0x02, 0x02, 0x02, 0x02})
	f.Add([]byte{0x85, 0x21, 0x41, 0x61, 0x01, 0x20, 0x40, 0x03, 0x02, 0x03, 0x02, 0x03, 0x02})
	f.Add([]byte("\x3fthe quick brown fox jumps over the lazy dog, twice over, and back again"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := newDoubleChecker(t, 1+int(data[0]&63))
		prefix := prefixModes[int(data[0]>>6)%len(prefixModes)].fn
		for i, b := range data[1:] {
			r := record.Record{Key: int64(b>>2&7) - 4, Aux: uint64(i) + 1}
			it := Item[record.Record]{Rec: r, Run: int(b >> 5), Key: prefix(r)}
			switch op := b & 3; {
			case op == 0 && !c.d.Full():
				c.pushTop(it)
			case op == 1 && !c.d.Full():
				c.pushBottom(it)
			case op == 2 && c.d.LenTop() > 0:
				c.popTop()
			case op == 3 && c.d.LenBottom() > 0:
				c.popBottom()
			}
			c.reimport(prefix)
		}
		if !c.d.Valid() {
			t.Fatal("heap property broken")
		}
	})
}

// TestExportImportRoundTrip rebuilds heaps from their Export at every
// kernel shape and requires the rebuilt heap to behave as the original bit
// for bit: the same pop sequence, ties included, through a further walk of
// pushes and pops — on a min-heap, a max-heap and both DoubleHeap sides.
func TestExportImportRoundTrip(t *testing.T) {
	eachKernelShape(t, func(t *testing.T, size int, src *itemSource) {
		flat := func() Item[record.Record] { it := src.item(); it.Run = 3; return it }
		for _, desc := range []bool{false, true} {
			h, fresh := New(size, desc, record.Less), New(size, desc, record.Less)
			for !h.Full() {
				h.Push(flat())
			}
			for i := 0; i < size/2; i++ { // age the layout past a plain fill
				h.Pop()
				h.Push(flat())
			}
			var recs []record.Record
			h.Export(func(r record.Record) { recs = append(recs, r) })
			if err := fresh.Import(recs, 3, src.prefix); err != nil {
				t.Fatalf("capacity %d desc %v: Import of an Export: %v", size, desc, err)
			}
			for step := 0; h.Len() > 0; step++ {
				a, b := h.Pop(), fresh.Pop()
				if a != b {
					t.Fatalf("capacity %d desc %v: pop %d is %+v from the original, %+v from the import", size, desc, step, a, b)
				}
				if step < size && step%3 != 0 {
					it := flat()
					h.Push(it)
					fresh.Push(it)
				}
			}
		}

		c := newDoubleChecker(t, size)
		for !c.d.Full() {
			if src.rng.Intn(2) == 0 {
				c.pushTop(flat())
			} else {
				c.pushBottom(flat())
			}
		}
		c.reimport(src.prefix)
		if c.twin == nil {
			t.Fatalf("capacity %d: a uniformly tagged DoubleHeap was not reimported", size)
		}
		for op := 0; c.d.Len() > 0; op++ {
			switch k := src.rng.Intn(3); {
			case k == 0 && op < 2*size && !c.d.Full():
				c.pushTop(flat())
			case k == 1 && op < 2*size && !c.d.Full():
				c.pushBottom(flat())
			case c.d.LenTop() > 0 && (k == 2 || c.d.LenBottom() == 0):
				c.popTop()
			default:
				c.popBottom()
			}
		}
	})
}

// TestImportRejectsNonExports pins Import's two refusals: more records than
// the arena holds, and records that are not in heap order where listed.
func TestImportRejectsNonExports(t *testing.T) {
	recs := []record.Record{{Key: 1}, {Key: 2}, {Key: 3}}
	if err := New(2, false, record.Less).Import(recs, 0, nil); err == nil {
		t.Error("Import of 3 records into a heap of 2 succeeded")
	}
	if err := New(4, true, record.Less).Import(recs, 0, nil); err == nil {
		t.Error("Import of ascending records into a max-heap succeeded")
	}
	if err := New(4, false, record.Less).Import(recs, 0, nil); err != nil {
		t.Errorf("Import of ascending records into a min-heap: %v", err)
	}
	d := NewDouble(4, record.Less)
	if err := d.Import(recs, recs, 0, nil); err == nil {
		t.Error("Import of 6 records into a double heap of 4 succeeded")
	}
	if err := d.Import(recs[:2], recs[:2], 0, nil); err == nil {
		t.Error("Import of an ascending BottomHeap succeeded")
	}
	if err := d.Import([]record.Record{{Key: 9}, {Key: 2}}, recs[:2], 0, nil); err != nil || d.LenBottom() != 2 || d.LenTop() != 2 {
		t.Errorf("Import of a valid pair of sides: %v (%d+%d held)", err, d.LenBottom(), d.LenTop())
	}
}

// TestSteadyStateAllocs pins the replacement-selection step — pop, push —
// at zero allocations on both heap types.
func TestSteadyStateAllocs(t *testing.T) {
	const size = 1 << 10
	src := &itemSource{rng: rand.New(rand.NewSource(1)), width: 1 << 40, prefix: prefixModes[0].fn}
	items := make([]Item[record.Record], 4096)
	for i := range items {
		items[i] = src.item()
	}
	h := New(size, false, record.Less)
	d := NewDouble(size, record.Less)
	for _, it := range items[:size] {
		h.Push(it)
		if it.Rec.Key >= 0 {
			d.PushTop(it)
		} else {
			d.PushBottom(it)
		}
	}
	next := size
	allocs := testing.AllocsPerRun(2000, func() {
		it := items[next%len(items)]
		next++
		it.Run = h.Pop().Run
		h.Push(it)
		if d.LenTop() > 0 && (d.LenBottom() == 0 || next%2 == 0) {
			d.PopTop()
			d.PushTop(it)
		} else {
			d.PopBottom()
			d.PushBottom(it)
		}
	})
	if allocs != 0 {
		t.Fatalf("pop+push allocates %v per step, want 0", allocs)
	}
}
