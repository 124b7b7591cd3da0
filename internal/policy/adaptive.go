package policy

import (
	"repro/internal/obs"
	"repro/internal/runio"
	"repro/internal/stream"
)

// adaptive is Auto: a Generator that wraps whichever fixed stepper is
// current. Its first NextRun probes a memory-sized prefix and picks a
// stepper; every NextRun forwards to the current one and then re-decides
// from a rolling window of recent input. A decisive regime change drains
// the stepper's buffered state (Generator.Carry) into a queue the successor
// is built over at the next call, so the switch is exact — no element is
// lost or reordered across it — and the boundary between the two calls is
// a run boundary like any other.
//
// Two guards keep it honest. Hysteresis: a switch needs a decisive rule
// (choose's confident result) and at least one window of fresh input since
// the last switch. Oscillation: if a decisive rule wants a policy that was
// already abandoned, the regime is alternating faster than the window can
// see, so the engine locks onto 2WRS — the one generator no direction
// degenerates — for the rest of the stream. A separate feedback rule drops
// to Quick when the last few runs came out at bare memory size with no
// directional structure: the heap is buying nothing, so stop paying for it.
type adaptive[T any] struct {
	em  *runio.Emitter[T]
	cfg Config
	key func(T) float64
	ob  *observer[T]
	// queue is what the current stepper reads: the probe prefix, or what its
	// predecessor carried, and then fresh input through ob.
	queue *stream.Prepended[T]
	// cur is nil until the first run, and from a switch until the next run.
	cur Generator[T]
	// kind is cur's policy, or that of the stepper the next run builds, and
	// down that stepper's first direction should it be Alternating; last is
	// the policy that wrote the latest run.
	kind, last Kind
	down       bool
	probed     bool
	locked     bool
	shortRuns  int
	// nextEval throttles the rolling measurement: re-deciding costs a ring
	// copy plus the inversion subsample, so it runs at most once per window
	// of fresh input — which is also the switching hysteresis.
	nextEval int64
	visited  uint64 // bit k set: policy k has been current
	switches int
}

// newAdaptive builds the engine over src.
func newAdaptive[T any](src stream.BatchReader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) *adaptive[T] {
	a := &adaptive[T]{em: em, cfg: cfg, key: key, ob: &observer[T]{br: src, less: em.Less, ring: make([]T, cfg.Window())}}
	a.queue = stream.Prepend[T](nil, a.ob)
	return a
}

// Kind names the policy whose stepper wrote the latest run.
func (a *adaptive[T]) Kind() Kind { return a.last }

// Switches counts the policy changes so far.
func (a *adaptive[T]) Switches() int { return a.switches }

// shortRunSlack is how far beyond the memory budget a run may stretch and
// still count as "degenerate" for Auto's feedback rule.
func shortRunSlack(memory int) int64 { return int64(memory) + int64(memory)/8 }

// NextRun emits one run from the current stepper — building it first, after
// the probe or a switch — and decides whether the next run changes policy.
func (a *adaptive[T]) NextRun() (runio.Run, bool, error) {
	if !a.probed {
		prefix, _, err := stream.ReadPrefix[T](a.ob, make([]T, 0, a.cfg.Memory), a.cfg.Memory, nil)
		if err != nil {
			return runio.Run{}, false, err
		}
		a.kind, a.down, _ = choose(Measure(prefix, a.em.Less))
		a.queue = stream.Prepend(prefix, a.ob)
		a.nextEval = a.ob.count + int64(len(a.ob.ring))
		a.visited, a.probed = 1<<a.kind, true
	}
	if a.cur == nil {
		var err error
		if a.cur, err = newStepper(a.kind, a.down, a.queue, a.em, a.cfg, a.key); err != nil {
			return runio.Run{}, false, err
		}
	}
	run, ok, err := a.cur.NextRun()
	if err != nil || !ok {
		return run, ok, err
	}
	a.last = a.kind
	if run.Records <= shortRunSlack(a.cfg.Memory) {
		a.shortRuns++
	} else {
		a.shortRuns = 0
	}
	if a.locked || a.ob.count < a.nextEval {
		return run, true, nil
	}
	a.nextEval = a.ob.count + int64(len(a.ob.ring))
	want, wantDown, confident := chooseRolling(a.ob.stats(), a.kind, a.shortRuns)
	if !confident || want == a.kind {
		return run, true, nil
	}
	if a.visited&(1<<want) != 0 {
		// The regime oscillates faster than the window resolves: settle on
		// the generalist for good.
		want, wantDown, a.locked = TwoWayRS, false, true
		if want == a.kind {
			return run, true, nil
		}
	}
	a.visited |= 1 << want
	a.cfg.Span.Event("policy_switch",
		obs.Str("from", a.kind.String()), obs.Str("to", want.String()),
		obs.Int("record", a.ob.count))
	a.queue = stream.Prepend(a.Carry(), a.ob)
	a.cur, a.kind, a.down = nil, want, wantDown
	a.shortRuns = 0
	a.switches++
	return run, true, nil
}

// Carry surrenders everything held: the current stepper's records, then
// whatever it had not yet read of the queue.
func (a *adaptive[T]) Carry() []T {
	var out []T
	if a.cur != nil {
		out = a.cur.Carry()
	}
	out = append(out, a.queue.Head()...)
	a.queue = stream.Prepend[T](nil, a.ob)
	return out
}

// chooseRolling applies the probe's decision rules to the rolling window,
// plus the two feedback rules that only make sense mid-stream.
func chooseRolling(st Stats, cur Kind, shortRuns int) (kind Kind, down, confident bool) {
	kind, down, confident = choose(st)
	if confident {
		return kind, down, true
	}
	// Random-looking regime while stuck in Quick: replacement selection
	// would double the run length, so escape.
	if cur == Quick && st.Zigzag >= 0.5 && st.InvRatio >= 0.25 && st.InvRatio <= 0.75 {
		return TwoWayRS, false, true
	}
	// No directional structure and the current generator has produced
	// several bare memory-sized runs in a row: drop to quicksort batches,
	// which emit the same runs without the per-element heap walk.
	if cur != Quick && shortRuns >= 4 {
		return Quick, false, true
	}
	return cur, down, false
}

// observer wraps the raw source, counting every element handed out and
// retaining the most recent window of them in a ring — element i of the
// input at slot i mod the window — for rolling order statistics. Elements
// re-fed through the queue after a policy switch do not pass through it
// again, so the count is exact and the window always reflects fresh input.
type observer[T any] struct {
	br    stream.BatchReader[T]
	less  func(a, b T) bool
	count int64
	ring  []T
}

// ReadBatch forwards to the source, counting what passed through and
// pushing it into the ring.
func (o *observer[T]) ReadBatch(dst []T) (int, error) {
	n, err := o.br.ReadBatch(dst)
	for _, v := range dst[:n] {
		o.ring[o.count%int64(len(o.ring))] = v
		o.count++
	}
	return n, err
}

// stats measures the ring's contents in arrival order.
func (o *observer[T]) stats() Stats {
	if o.count < int64(len(o.ring)) {
		return Measure(o.ring[:o.count], o.less)
	}
	oldest := o.count % int64(len(o.ring))
	return Measure(append(append(make([]T, 0, len(o.ring)), o.ring[oldest:]...), o.ring[:oldest]...), o.less)
}
