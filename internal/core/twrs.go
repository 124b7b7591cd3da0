package core

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/codec"
	"repro/internal/heap"
	"repro/internal/runio"
	"repro/internal/stream"
)

// outStream is one of the four output streams of a run (Figure 4.1): what
// it is called in file names, its direction, its writer — opened by the
// stream's first record, so a stream the run never feeds has no file — the
// staging its records pass through to the writer, kept across runs, and the
// first and last element written to it, which decide at run end whether the
// run is concatenable.
type outStream[T any] struct {
	role        string
	descending  bool
	w           runio.StreamWriter[T]
	out         *stream.ElementWriter[T]
	first, last T
}

// The generator's streams in ascending concatenation order: a run reads
// rev(4) + 3 + rev(2) + 1. The TopHeap releases into stream 1 and the
// BottomHeap into stream 4; the victim buffer flushes into 3 and 2.
const (
	stream4 = iota
	stream3
	stream2
	stream1
)

// generator holds the full state of one 2WRS execution.
type generator[T any] struct {
	cfg  Config
	less func(a, b T) bool
	// key optionally projects elements onto the real line. The numeric
	// heuristics (Mean division point, victim gap split, MinDistance
	// output) use it when present; comparator-only element types degrade
	// to order-based fallbacks (the input buffer's median element, the
	// victim buffer's middle split, Random), and the buffer then keeps its
	// slots in order.
	key func(T) float64
	// pfx caches normalized-key prefixes into double-heap items when the
	// emitter carries a KeyCodec; nil on the comparator-only path.
	pfx       func(T) uint64
	em        *runio.Emitter[T]
	in        *inputBuffer[T]
	dh        *heap.DoubleHeap[T]
	rng       *rand.Rand
	victimCap int

	currentRun int

	streams [4]outStream[T] // indexed by stream4 … stream1

	// Output frontiers of the current run: t is the last element written to
	// stream 1 (ascending) and b the last written to stream 4 (descending).
	// A record can join the current run through the TopHeap iff it is ≥ t
	// and through the BottomHeap iff it is ≤ b, exactly the RS rule applied
	// per direction (§4.1).
	tSet, bSet bool
	t, b       T

	// Victim buffer state (§4.3). sort orders it ascending, stably under
	// the comparator.
	victim       []T
	sort         *codec.KeySorter[T]
	victimActive bool
	lo, hi       T // exclusive valid range once active

	// Heuristic state.
	lastInputTop  bool
	lastOutputTop bool
	outTop        int
	outBottom     int
	firstOutSet   bool
	firstOut      float64 // key projection of the run's first output
	// Key range observed so far: the Mean/Median fallback division point
	// when the input buffer is empty or absent. Tracked only with a key
	// projection.
	rangeSet         bool
	minSeen, maxSeen float64
	// Frozen per-run division point for the Mean heuristic: a numeric
	// threshold when a key projection exists, otherwise a sampled division
	// element compared with less.
	divisionSet bool
	division    float64
	divRecSet   bool
	divRec      T
}

// Stepper runs two-way replacement selection one run at a time: each
// NextRun call drives Algorithm 2 until the current run closes. Between
// calls the double heap holds the records already tagged for the next run
// and the input buffer its read-ahead, so a caller may stop after any run
// and continue later.
type Stepper[T any] struct {
	g        *generator[T]
	filled   bool
	finished bool
}

// NewStepper builds a 2WRS stepper over src, writing runs through em and
// ordering elements with em.Less. key, when non-nil, projects elements
// onto the real line for the numeric heuristics; pass nil for
// comparator-only element types.
func NewStepper[T any](src stream.BatchReader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) (*Stepper[T], error) {
	inputCap, victimCap, arena, err := cfg.sizes()
	if err != nil {
		return nil, err
	}
	if victimCap < 2 {
		// A victim buffer needs at least two records to define a valid
		// range; below that it behaves like no buffer at all (§5.2.6 makes
		// the same observation about the 0.02% configurations).
		victimCap = 0
	}
	less := em.Less
	trackMedian := cfg.Input == InMedian || (cfg.Input == InMean && key == nil)
	in := newInputBuffer(src, inputCap, cfg.Memory, key, trackMedian, less)
	g := &generator[T]{
		cfg:       cfg,
		less:      less,
		key:       key,
		pfx:       em.PrefixFunc(),
		em:        em,
		in:        in,
		dh:        heap.NewDouble(arena, less),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		victimCap: victimCap,
		streams:   [4]outStream[T]{{role: "s4", descending: true}, {role: "s3"}, {role: "s2", descending: true}, {role: "s1"}},
	}
	for i := range g.streams {
		g.streams[i].out = stream.NewElementWriter[T](nil, em.StageLen())
	}
	if victimCap > 0 {
		g.victim = make([]T, 0, victimCap)
		g.sort = codec.NewKeySorter(em.KeyCodec, less)
	}
	if err := in.fill(); err != nil {
		return nil, err
	}
	return &Stepper[T]{g: g}, nil
}

// fill is the fill phase (doubleHeap.fill in Algorithm 2): both heaps are
// eligible for every record, so the input heuristic decides each placement.
func (s *Stepper[T]) fill() error {
	g := s.g
	for !g.dh.Full() {
		rec, ok, err := g.in.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		g.insertInput(rec)
	}
	return nil
}

// NextRun drives the main loop of Algorithm 2 — release one record, refill
// from the input — until the current run ends, and returns that run's
// manifest; ok is false once input and heaps are exhausted.
func (s *Stepper[T]) NextRun() (runio.Run, bool, error) {
	g := s.g
	if !s.filled {
		if err := s.fill(); err != nil {
			return runio.Run{}, false, err
		}
		s.filled = true
	}
	for g.dh.Len() > 0 {
		fromTop, ok := g.chooseOutputSide()
		if !ok {
			// Both heap tops belong to the next run: the current run ends.
			run, err := g.endRun()
			if err != nil {
				return runio.Run{}, false, err
			}
			if run.Records > 0 {
				return run, true, nil
			}
			continue
		}
		var it heap.Item[T]
		if fromTop {
			it = g.dh.PopTop()
		} else {
			it = g.dh.PopBottom()
		}
		if err := g.route(it.Rec, fromTop); err != nil {
			return runio.Run{}, false, err
		}
		if err := g.consumeInput(); err != nil {
			return runio.Run{}, false, err
		}
	}
	if s.finished {
		return runio.Run{}, false, nil
	}
	s.finished = true
	run, err := g.endRun()
	if err != nil || run.Records == 0 {
		return runio.Run{}, false, err
	}
	return run, true, nil
}

// chooseOutputSide picks the heap to release the next record from. ok is
// false when neither heap has a current-run record on top.
func (g *generator[T]) chooseOutputSide() (fromTop, ok bool) {
	topOK := g.dh.LenTop() > 0 && g.dh.PeekTop().Run == g.currentRun
	botOK := g.dh.LenBottom() > 0 && g.dh.PeekBottom().Run == g.currentRun
	switch {
	case !topOK && !botOK:
		return false, false
	case topOK && !botOK:
		return true, true
	case botOK && !topOK:
		return false, true
	}
	// Both possible: apply the output heuristic (§4.2).
	switch g.cfg.Output {
	case OutRandom:
		return g.coin(), true
	case OutAlternate:
		g.lastOutputTop = !g.lastOutputTop
		return g.lastOutputTop, true
	case OutUseful:
		uTop := float64(g.outTop) / float64(max(1, g.dh.LenTop()))
		uBot := float64(g.outBottom) / float64(max(1, g.dh.LenBottom()))
		return uTop >= uBot, true
	case OutBalancing:
		// Keep the heaps level by draining the larger one.
		return g.dh.LenTop() >= g.dh.LenBottom(), true
	case OutMinDistance:
		// Distance needs a numeric projection; without one the heuristic
		// degrades to Random.
		if g.key == nil || !g.firstOutSet {
			return g.coin(), true
		}
		dTop := math.Abs(g.key(g.dh.PeekTop().Rec) - g.firstOut)
		dBot := math.Abs(g.key(g.dh.PeekBottom().Rec) - g.firstOut)
		return dTop <= dBot, true
	default:
		return true, true
	}
}

// coin flips the seeded coin the Random heuristics share.
func (g *generator[T]) coin() bool { return g.rng.Intn(2) == 0 }

// route releases a popped record: to the victim buffer during the initial
// collection phase, otherwise directly to the releasing heap's stream
// (Figure 4.1: TopHeap → stream 1, BottomHeap → stream 4).
func (g *generator[T]) route(v T, fromTop bool) error {
	if !g.firstOutSet {
		g.firstOutSet = true
		if g.key != nil {
			g.firstOut = g.key(v)
		}
	}
	g.countOut(fromTop)
	// A released record advances its heap's output frontier whether it is
	// written now or staged below: a staged record is an output of its heap,
	// so later input records must not slip past it into the same heap.
	out := stream4
	if fromTop {
		out = stream1
		g.t, g.tSet = v, true
	} else {
		g.b, g.bSet = v, true
	}
	// Initial victim phase: the first victimCap outputs of the run collect
	// in the victim buffer so the valid range can be chosen from a larger
	// sample than just the two heap tops (§4.3).
	if g.victimCap > 0 && !g.victimActive {
		g.victim = append(g.victim, v)
		if len(g.victim) == g.victimCap {
			g.sort.Sort(g.victim)
			if err := g.flushVictimParts(g.largestGapIndex()); err != nil {
				return err
			}
			g.victimActive = true
		}
		return nil
	}
	return g.write(out, v)
}

func (g *generator[T]) countOut(fromTop bool) {
	if fromTop {
		g.outTop++
	} else {
		g.outBottom++
	}
}

// consumeInput moves one record (or, while the victim buffer keeps fitting,
// several) from the input into the memory structures, mirroring the inner
// while-loop of Algorithm 2.
func (g *generator[T]) consumeInput() error {
	rec, ok, err := g.in.next()
	if err != nil || !ok {
		return err
	}
	for g.victimActive && g.less(g.lo, rec) && g.less(rec, g.hi) {
		if err := g.victimAdd(rec); err != nil {
			return err
		}
		rec, ok, err = g.in.next()
		if err != nil || !ok {
			return err
		}
	}
	g.insertInput(rec)
	return nil
}

// insertInput places an input record in one of the heaps, tagged with the
// run it can still join.
func (g *generator[T]) insertInput(rec T) {
	if g.key != nil {
		k := g.key(rec)
		if !g.rangeSet {
			g.minSeen, g.maxSeen, g.rangeSet = k, k, true
		} else {
			if k < g.minSeen {
				g.minSeen = k
			}
			if k > g.maxSeen {
				g.maxSeen = k
			}
		}
	}
	topElig := !g.tSet || !g.less(rec, g.t)
	botElig := !g.bSet || !g.less(g.b, rec)
	run := g.currentRun
	var toTop bool
	switch {
	case g.cfg.Input == InTopOnly:
		// Theorem 7's degenerate heuristic: everything goes to the TopHeap
		// so that 2WRS reduces to exactly RS.
		toTop = true
		if !topElig {
			run = g.currentRun + 1
		}
	case topElig && botElig:
		toTop = g.chooseInsertSide(rec)
	case topElig:
		toTop = true
	case botElig:
		toTop = false
	default:
		run = g.currentRun + 1
		toTop = g.chooseInsertSide(rec)
	}
	it := heap.Item[T]{Rec: rec, Run: run}
	if g.pfx != nil {
		it.Key = g.pfx(rec)
	}
	if toTop {
		g.dh.PushTop(it)
	} else {
		g.dh.PushBottom(it)
	}
}

// chooseInsertSide applies the input heuristic (§4.2); true means TopHeap.
func (g *generator[T]) chooseInsertSide(rec T) bool {
	switch g.cfg.Input {
	case InRandom:
		return g.coin()
	case InAlternate:
		g.lastInputTop = !g.lastInputTop
		return g.lastInputTop
	case InMean:
		// The mean division point is sampled from the input buffer once
		// per run and frozen: §4.2 uses it to "choose a good first output
		// record" that "marks a division" between the heaps. Freezing it
		// keeps the four stream ranges disjoint (concatenable runs);
		// re-sampling per record would wobble the boundary and overlap
		// them. Without a key projection the frozen sample is the input
		// buffer's median element instead of its numeric mean.
		if g.key != nil {
			if g.divisionSet {
				return g.key(rec) > g.division
			}
			if m, ok := g.in.mean(); ok {
				g.division, g.divisionSet = m, true
				return g.key(rec) > g.division
			}
			if g.rangeSet {
				g.division, g.divisionSet = g.minSeen+(g.maxSeen-g.minSeen)/2, true
				return g.key(rec) > g.division
			}
		} else {
			if g.divRecSet {
				return g.less(g.divRec, rec)
			}
			if md, ok := g.in.median(); ok {
				g.divRec, g.divRecSet = md, true
				return g.less(g.divRec, rec)
			}
		}
	case InMedian:
		// The median tracks the input buffer dynamically: on bimodal
		// inputs (the mixed datasets) a frozen median would sit at a
		// cluster edge rather than between the trends.
		if md, ok := g.in.median(); ok {
			return g.less(md, rec)
		}
	case InUseful:
		uTop := float64(g.outTop) / float64(max(1, g.dh.LenTop()))
		uBot := float64(g.outBottom) / float64(max(1, g.dh.LenBottom()))
		return uTop >= uBot
	case InBalancing:
		return g.dh.LenTop() <= g.dh.LenBottom()
	case InTopOnly:
		return true
	}
	// Mean/Median with an empty or disabled input buffer fall back to the
	// midpoint of the key range seen so far — a free O(1) estimate of the
	// division point that keeps them sensible in the victim-only setup.
	// Comparator-only element types alternate instead.
	if g.key != nil && g.rangeSet {
		return g.key(rec) > g.minSeen+(g.maxSeen-g.minSeen)/2
	}
	g.lastInputTop = !g.lastInputTop
	return g.lastInputTop
}

// victimAdd stores an input record in the (active) victim buffer, flushing
// when full.
func (g *generator[T]) victimAdd(rec T) error {
	g.victim = append(g.victim, rec)
	if len(g.victim) == g.victimCap {
		g.sort.Sort(g.victim)
		if err := g.flushVictimParts(g.largestGapIndex()); err != nil {
			return err
		}
	}
	return nil
}

// largestGapIndex returns i maximising the key gap between victim[i] and
// victim[i-1] over the sorted victim contents. Without a key projection it
// splits in the middle, which keeps the two extra streams balanced.
func (g *generator[T]) largestGapIndex() int {
	if g.key == nil {
		return len(g.victim) / 2
	}
	best, bestGap := 1, math.Inf(-1)
	for i := 1; i < len(g.victim); i++ {
		if gap := g.key(g.victim[i]) - g.key(g.victim[i-1]); gap > bestGap {
			best, bestGap = i, gap
		}
	}
	return best
}

// flushVictimParts sets the valid range to the gap between victim[:cut] and
// victim[cut:], writes the first part to stream 3 ascending and the second,
// reversed, to stream 2 descending — one batch each — and empties the buffer
// (§4.3).
func (g *generator[T]) flushVictimParts(cut int) error {
	v := g.victim
	g.victim = v[:0]
	if cut > 0 {
		g.lo = v[cut-1]
	}
	if cut < len(v) {
		g.hi = v[cut]
	} else {
		g.hi = g.lo
	}
	slices.Reverse(v[cut:])
	if err := g.writeBatch(stream3, v[:cut]); err != nil {
		return err
	}
	return g.writeBatch(stream2, v[cut:])
}

// write appends v to stream i, opening the stream if v is its first record.
func (g *generator[T]) write(i int, v T) error {
	s := &g.streams[i]
	if s.w == nil {
		w, err := g.em.Stream(s.role, s.descending)
		if err != nil {
			return err
		}
		s.w, s.first = w, v
		s.out.Reset(w)
	}
	s.last = v
	return s.out.Write(v)
}

// writeBatch appends vs, in the stream's direction, to stream i after what
// is staged: the first through write, which opens the stream with it.
func (g *generator[T]) writeBatch(i int, vs []T) error {
	if len(vs) == 0 {
		return nil
	}
	if err := g.write(i, vs[0]); err != nil {
		return err
	}
	g.streams[i].last = vs[len(vs)-1]
	return g.streams[i].out.WriteBatch(vs[1:])
}

// concatenable reports whether the four stream ranges are pairwise disjoint
// in concatenation order (4, 3, 2, 1), i.e. whether reading the streams back
// to back yields one sorted run.
func (g *generator[T]) concatenable() bool {
	prevSet := false
	var prevMax T
	for i := range g.streams {
		s := &g.streams[i]
		if s.w == nil {
			continue
		}
		// A descending stream was written largest-first, so its first
		// element is its maximum.
		lo, hi := s.first, s.last
		if s.descending {
			lo, hi = hi, lo
		}
		if prevSet && g.less(lo, prevMax) {
			return false
		}
		prevMax, prevSet = hi, true
	}
	return true
}

// endRun flushes the victim buffer, closes the four stream writers, resets
// all per-run state and returns the run's manifest, which has no records
// when the run wrote nothing.
func (g *generator[T]) endRun() (runio.Run, error) {
	if len(g.victim) > 0 {
		g.sort.Sort(g.victim)
		if !g.victimActive && len(g.victim) >= 2 {
			// The run ended before the victim ever filled: still split at
			// the largest gap so both extra streams stay balanced.
			if err := g.flushVictimParts(g.largestGapIndex()); err != nil {
				return runio.Run{}, err
			}
		} else {
			// Active phase (contents strictly inside (lo,hi)) or a single
			// record: appending everything to stream 3 keeps it ascending
			// and inside the gap.
			if err := g.writeBatch(stream3, g.victim); err != nil {
				return runio.Run{}, err
			}
			g.victim = g.victim[:0]
		}
	}

	run := runio.Run{Segments: make([]runio.Segment, 0, len(g.streams))}
	for i := range g.streams {
		if w := g.streams[i].w; w != nil {
			if err := g.streams[i].out.Flush(); err != nil {
				return runio.Run{}, err
			}
			if err := w.Close(); err != nil {
				return runio.Run{}, err
			}
			seg := w.Segment()
			run.Segments = append(run.Segments, seg)
			run.Records += seg.Records
		}
	}
	if run.Records > 0 {
		run.Concatenable = g.concatenable()
	}

	for i := range g.streams {
		g.streams[i].w = nil
	}
	g.currentRun++
	g.tSet, g.bSet = false, false
	g.victimActive = false
	g.outTop, g.outBottom = 0, 0
	g.firstOutSet = false
	g.divisionSet = false
	g.divRecSet = false

	if g.cfg.Input == InBalancing {
		g.rebalanceHeaps()
	}
	return run, nil
}

// rebalanceHeaps levels the two heap sizes at the start of a run, as the
// Balancing input heuristic prescribes (§4.2).
func (g *generator[T]) rebalanceHeaps() {
	for g.dh.LenTop() > g.dh.LenBottom()+1 {
		g.dh.PushBottom(g.dh.PopTop())
	}
	for g.dh.LenBottom() > g.dh.LenTop()+1 {
		g.dh.PushTop(g.dh.PopBottom())
	}
}
