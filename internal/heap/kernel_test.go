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
// same operations.
type doubleChecker struct {
	t        testing.TB
	d        *DoubleHeap[record.Record]
	capacity int
	top, bot oracle
}

func newDoubleChecker(t testing.TB, capacity int) *doubleChecker {
	return &doubleChecker{t: t, d: NewDouble(capacity, record.Less), capacity: capacity,
		top: oracle{t: t}, bot: oracle{t: t, desc: true}}
}

func (c *doubleChecker) pushTop(it Item[record.Record]) {
	c.d.PushTop(it)
	c.top.push(it)
	c.check()
}

func (c *doubleChecker) pushBottom(it Item[record.Record]) {
	c.d.PushBottom(it)
	c.bot.push(it)
	c.check()
}

func (c *doubleChecker) popTop() {
	c.top.pop(c.d.PopTop())
	c.check()
}

func (c *doubleChecker) popBottom() {
	c.bot.pop(c.d.PopBottom())
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
		}
		if !c.d.Valid() {
			t.Fatal("heap property broken")
		}
	})
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
