package heap

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/record"
)

// treeChecker drives a Tree and an oracle through the same operations and
// checks the tree's size and winner after every one.
type treeChecker struct {
	t      testing.TB
	r      *Tree[record.Record]
	o      oracle
	parked []int32                        // the leaves park emptied, in order
	held   map[uint64]Item[record.Record] // each parked element's item, by Aux
}

func newTreeChecker(t testing.TB, size int, desc bool) *treeChecker {
	return &treeChecker{t: t, r: NewTree(size, desc, record.Less), o: oracle{t: t, desc: desc}}
}

func (c *treeChecker) load(it Item[record.Record]) {
	c.r.Load(it)
	c.o.push(it)
}

func (c *treeChecker) build() {
	c.r.Build()
	c.check()
}

func (c *treeChecker) replace(it Item[record.Record]) {
	c.o.pop(c.r.Top())
	c.r.Replace(it)
	c.o.push(it)
	c.check()
}

func (c *treeChecker) vacate() {
	c.o.pop(c.r.Top())
	c.r.Vacate()
	c.check()
}

// park takes the winner out as vacate does and keeps it parked in its leaf.
func (c *treeChecker) park() {
	top := c.r.Top()
	c.o.pop(top)
	if c.held == nil {
		c.held = map[uint64]Item[record.Record]{}
	}
	c.held[top.Rec.Aux] = top
	c.parked = append(c.parked, int32(c.r.Park(top.Rec)))
	c.check()
}

// put plays it in at a parked leaf picked by pick, which must still hold
// what was parked there.
func (c *treeChecker) put(pick int, it Item[record.Record]) {
	c.t.Helper()
	pick %= len(c.parked)
	leaf := int(c.parked[pick])
	c.parked = append(c.parked[:pick], c.parked[pick+1:]...)
	if got := *c.r.Parked(leaf); c.held[got.Aux].Rec != got {
		c.t.Fatalf("leaf %d holds %+v, not what was parked there", leaf, got)
	}
	c.r.Put(leaf, it)
	c.o.push(it)
	c.check()
}

// restore brings every parked element back as the item it left as, the
// parked leaves passed in two pieces as a ring's would be.
func (c *treeChecker) restore(cut int) {
	cut %= len(c.parked) + 1
	c.r.Restore(func(rec record.Record) Item[record.Record] { return c.held[rec.Aux] }, c.parked[cut:], c.parked[:cut])
	for _, leaf := range c.parked {
		c.o.push(c.held[c.r.leaf[leaf].Rec.Aux])
	}
	c.parked = c.parked[:0]
	c.check()
}

// flip reverses both: the oracle re-sorts what it holds under the opposite
// order within each run.
func (c *treeChecker) flip() {
	c.r.Flip()
	c.o.desc = !c.o.desc
	sort.SliceStable(c.o.items, func(i, j int) bool { return c.o.cmp(c.o.items[i], c.o.items[j]) < 0 })
	c.check()
}

func (c *treeChecker) check() {
	c.t.Helper()
	if c.r.Len() != len(c.o.items) {
		c.t.Fatalf("capacity %d: Len %d with %d items held", c.r.Cap(), c.r.Len(), len(c.o.items))
	}
	if c.r.Len() > 0 {
		c.o.peek(c.r.Top())
	}
}

// TestTreeMatchesOracle holds the tree to the sort oracle in both
// directions, on spread keys and on width-8 keys (ties everywhere), keyed,
// coarse and comparator-only, at every kernel size: a load that fills the
// tree or stops short of it, the replacement-selection step, a random walk
// of replacements, vacated leaves and flips, and a drain to empty through
// the empty leaves.
func TestTreeMatchesOracle(t *testing.T) {
	eachKernelShape(t, func(t *testing.T, size int, src *itemSource) {
		for _, desc := range []bool{false, true} {
			c := newTreeChecker(t, size, desc)
			loaded := size
			if src.rng.Intn(3) == 0 {
				loaded = src.rng.Intn(size + 1)
			}
			for range loaded {
				c.load(src.item())
			}
			c.build()
			for op := 0; op < min(size, 2000) && c.r.Len() > 0; op++ {
				c.replace(src.item())
			}
			for op := 0; op < min(3*size, 4000) && c.r.Len() > 0; op++ {
				switch k := src.rng.Intn(64); {
				case k == 0:
					c.flip()
				case k < 8:
					c.vacate()
				case k < 16:
					c.park()
				case k < 24 && len(c.parked) > 0:
					c.put(src.rng.Int(), src.item())
				case k == 24:
					c.restore(src.rng.Int())
				default:
					c.replace(src.item())
				}
			}
			// Put items into an emptied tree's parked leaves, as records
			// behind a tail go into the tree.
			for c.r.Len() > 0 {
				c.park()
			}
			for len(c.parked) > 0 {
				c.put(src.rng.Int(), src.item())
			}
			for c.r.Len() > 0 {
				c.vacate()
			}
			c.flip() // an empty tree flips and stays empty
		}
	})
}

// FuzzTree decodes one operation per byte: the low two bits pick replace,
// vacate or flip (two codes replace), the next three the key (eight
// values, so ties everywhere), the top three the run tag. The first byte
// sizes the tree (1..64) and its top bit picks the direction; the second
// says how many of the bytes that follow are loaded before Build (low six
// bits) and picks the prefix mode (top two).
func FuzzTree(f *testing.F) {
	f.Add([]byte{3, 3, 0x00, 0x01, 0x04, 0x05, 0x02, 0x03, 0x02, 0x03})
	f.Add([]byte{0, 0, 0x00, 0x02, 0x01, 0x03})
	f.Add([]byte{0x88, 0x48, 0x1c, 0x18, 0x14, 0x10, 0x0c, 0x08, 0x04, 0x00, 0x1c, 0x03, 0x02, 0x02, 0x01, 0x02, 0x02, 0x02, 0x02, 0x02})
	f.Add([]byte{0x45, 0x82, 0x21, 0x41, 0x61, 0x01, 0x20, 0x40, 0x03, 0x02, 0x03, 0x02, 0x03, 0x02})
	f.Add([]byte("\x3f\x20the quick brown fox jumps over the lazy dog, twice over, and back again"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		size := 1 + int(data[0]&63)
		c := newTreeChecker(t, size, data[0]&0x80 != 0)
		prefix := prefixModes[int(data[1]>>6)%len(prefixModes)].fn
		aux := uint64(0)
		item := func(b byte) Item[record.Record] {
			aux++
			r := record.Record{Key: int64(b>>2&7) - 4, Aux: aux}
			return Item[record.Record]{Rec: r, Run: int(b >> 5), Key: prefix(r)}
		}
		ops := data[2:]
		loaded := min(int(data[1]&63)%(size+1), len(ops))
		for _, b := range ops[:loaded] {
			c.load(item(b))
		}
		ops = ops[loaded:]
		c.build()
		for _, b := range ops {
			if c.r.Len() == 0 {
				break
			}
			switch b & 3 {
			case 0, 1:
				c.replace(item(b))
			case 2:
				c.vacate()
			case 3:
				c.flip()
			}
		}
		for c.r.Len() > 0 {
			c.vacate()
		}
	})
}

func TestTreePanics(t *testing.T) {
	full := NewTree(1, false, record.Less)
	full.Load(item(1, 0))
	played := NewTree(2, false, record.Less)
	played.Build()
	live := NewTree(1, false, record.Less)
	live.Load(item(1, 0))
	live.Build()
	for name, fn := range map[string]func(){
		"zero capacity":   func() { NewTree(0, false, record.Less) },
		"nil comparator":  func() { NewTree[record.Record](1, false, nil) },
		"load on full":    func() { full.Load(item(2, 0)) },
		"load after play": func() { played.Load(item(2, 0)) },
		"top unplayed":    func() { full.Top() },
		"top empty":       func() { played.Top() },
		"replace empty":   func() { played.Replace(item(2, 0)) },
		"vacate empty":    func() { played.Vacate() },
		"park empty":      func() { played.Park(record.Record{}) },
		"put unplayed":    func() { full.Put(0, item(2, 0)) },
		"put live":        func() { live.Put(0, item(2, 0)) },
		"negative run":    func() { NewTree(1, false, record.Less).Load(item(1, -1)) },
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

// TestTreeSteadyStateAllocs pins every operation of a built tree —
// replace, vacate down to empty, and flip, which replays the tournament in
// place — at zero allocations.
func TestTreeSteadyStateAllocs(t *testing.T) {
	const size = 1 << 10
	src := &itemSource{rng: rand.New(rand.NewSource(1)), width: 1 << 40, prefix: prefixModes[0].fn}
	items := make([]Item[record.Record], 4096)
	for i := range items {
		items[i] = src.item()
	}
	r := NewTree(size, false, record.Less)
	for _, it := range items[:size] {
		r.Load(it)
	}
	r.Build()
	next := size
	step := func() {
		it := items[next%len(items)]
		next++
		r.Replace(it)
	}
	if allocs := testing.AllocsPerRun(2000, step); allocs != 0 {
		t.Fatalf("replace allocates %v per step, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, r.Flip); allocs != 0 {
		t.Fatalf("flip allocates %v per call, want 0", allocs)
	}
	cycle := func() {
		r.Put(r.Park(items[next%len(items)].Rec), items[next%len(items)])
		next++
	}
	if allocs := testing.AllocsPerRun(2000, cycle); allocs != 0 {
		t.Fatalf("park and put allocate %v per step, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(size-1, r.Vacate); allocs != 0 || r.Len() != 0 {
		t.Fatalf("vacate allocates %v per step and leaves %d items, want 0 and 0", allocs, r.Len())
	}
}
