package policy

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rs"
	"repro/internal/runio"
	"repro/internal/stream"
)

// Generator is the common per-run interface every concrete run generator
// offers the policy layer: NextRun writes exactly one run through the
// configured emitter (ok=false at exhaustion). Between runs its buffered
// state — heaps, FIFOs, read-ahead — can leave two ways. Carry is the
// destructive hand-off: it surrenders every element, order and run tags
// dropped, so a different generator can take over (Auto's switches).
// Checkpoint is the boundary snapshot: it lists the same elements in
// positional order, disturbing nothing, and returns the state words that
// also survive a boundary, so a Restore constructor can rebuild this exact
// generator later (durable sorts).
type Generator[T any] interface {
	NextRun() (run runio.Run, ok bool, err error)
	Carry() []T
	Checkpoint(put func(T)) (state []uint64)
}

// Checkpoint is what Generator.Checkpoint produced at one run boundary:
// the elements it listed, in order, and the state words it returned.
type Checkpoint[T any] struct {
	Recs  []T
	State []uint64
}

// Config parameterises policy-driven run generation.
type Config struct {
	// Memory is the budget in elements shared by every generator.
	Memory int
	// TWRS carries the 2WRS knobs used whenever the 2wrs generator runs;
	// the zero value selects the paper's §5.3 recommendation.
	TWRS core.Config
	// ProbeRecords bounds the Auto policy's probe prefix (0: Memory).
	ProbeRecords int
	// Window bounds Auto's rolling order-statistics ring (0: Memory,
	// clamped to [256, 8192]). The ring must be able to span the input's
	// structure — a window much smaller than the memory budget can mistake
	// one ascending tooth of a descending staircase for a sorted stream.
	Window int
	// Span, when non-nil, is the enclosing trace span: generation records
	// one child span per run and one instant event per policy switch
	// under it. Nil disables tracing at zero cost.
	Span *obs.Span
}

func (c Config) probeRecords() int {
	if c.ProbeRecords > 0 {
		return c.ProbeRecords
	}
	return c.Memory
}

func (c Config) window() int {
	if c.Window > 0 {
		return c.Window
	}
	w := c.Memory
	if w < 256 {
		w = 256
	}
	if w > 8192 {
		w = 8192
	}
	return w
}

func (c Config) twrs() core.Config {
	t := c.TWRS
	if t == (core.Config{}) {
		t = core.Recommended(c.Memory)
	}
	t.Memory = c.Memory
	return t
}

// Result summarises a policy-driven run-generation pass.
type Result struct {
	// Runs lists the generated runs in creation order.
	Runs []runio.Run
	// Policies names the generator that produced each run: Policies[i]
	// made Runs[i].
	Policies []Kind
	// Records is the total number of input elements consumed.
	Records int64
	// Switches counts mid-stream generator changes (always 0 for fixed
	// policies).
	Switches int
}

// newGenerator constructs the concrete generator for a fixed policy kind.
// down selects the Alternating policy's first run direction.
func newGenerator[T any](kind Kind, down bool, src stream.Reader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) (Generator[T], error) {
	switch kind {
	case TwoWayRS:
		return core.NewStepper(src, em, cfg.twrs(), key)
	case RS:
		return rs.NewStepper(src, em, cfg.Memory)
	case Alternating:
		return rs.NewAltStepper(src, em, cfg.Memory, down)
	case Quick:
		return rs.NewQuickStepper(src, em, cfg.Memory)
	default:
		return nil, fmt.Errorf("policy: %v is not a concrete generator", kind)
	}
}

// NewGenerator constructs the generator of a fixed policy kind for a driver
// that steps it itself through Drive — internal/extsort, whose durable mode
// hooks the run boundaries. from nil is a fresh generator. Otherwise it is
// the one that took that checkpoint, over src positioned just past the
// input that one had consumed; a checkpoint no generator of the kind could
// have taken (counts that do not add up, records out of heap order) is an
// error, never a different run sequence. Quick holds nothing between runs,
// so its restore is a fresh one. Auto is not constructible here: its probe
// state is in no generator's checkpoint.
func NewGenerator[T any](kind Kind, src stream.Reader[T], em *runio.Emitter[T], cfg Config, key func(T) float64, from *Checkpoint[T]) (Generator[T], error) {
	if from != nil {
		switch kind {
		case TwoWayRS:
			return core.Restore(src, em, cfg.twrs(), key, from.Recs, from.State)
		case RS:
			return rs.RestoreStepper(src, em, cfg.Memory, from.Recs, from.State)
		case Alternating:
			return rs.RestoreAltStepper(src, em, cfg.Memory, from.Recs, from.State)
		}
	}
	return newGenerator(kind, false, src, em, cfg, key)
}

// Generate runs the given policy over src, writing runs through em. key
// optionally projects elements onto the real line for the 2WRS numeric
// heuristics; nil selects the comparator-only fallbacks.
func Generate[T any](kind Kind, src stream.Reader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) (Result, error) {
	if cfg.Memory <= 0 {
		return Result{}, fmt.Errorf("policy: memory must be positive, got %d", cfg.Memory)
	}
	switch kind {
	case TwoWayRS, RS, Alternating, Quick:
		return generateFixed(kind, src, em, cfg, key)
	case Auto:
		return generateAuto(src, em, cfg, key)
	default:
		return Result{}, errUnknown(kind.String())
	}
}

// generateFixed drains src through a single generator.
func generateFixed[T any](kind Kind, src stream.Reader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) (Result, error) {
	ob := newObserver(src, em.Less, 0)
	gen, err := newGenerator(kind, false, ob, em, cfg, key)
	if err != nil {
		return Result{}, err
	}
	runs, err := Drive(gen, kind.String(), cfg.Span, nil)
	res := Result{Runs: runs, Records: ob.count, Policies: make([]Kind, len(runs))}
	for i := range res.Policies {
		res.Policies[i] = kind
	}
	return res, err
}

// Drive steps gen to exhaustion and returns the runs it emitted, recording
// one "run" span per run under span (nil: none). boundary, when set, is
// called after every run with the generator at rest — the one moment
// Checkpoint is meaningful; an error from it aborts the pass. This is the
// one run-generation loop of every fixed generator.
func Drive[T any](gen Generator[T], name string, span *obs.Span, boundary func(Generator[T], runio.Run) error) ([]runio.Run, error) {
	var runs []runio.Run
	for {
		sp := span.Start("run", obs.Str("policy", name))
		run, ok, err := gen.NextRun()
		if err != nil || !ok {
			sp.Drop()
			return runs, err
		}
		sp.End(obs.Int("records", run.Records), obs.Bool("concatenable", run.Concatenable))
		runs = append(runs, run)
		if boundary != nil {
			if err := boundary(gen, run); err != nil {
				return runs, err
			}
		}
	}
}

// shortRunSlack is how far beyond the memory budget a run may stretch and
// still count as "degenerate" for Auto's feedback rule.
func shortRunSlack(memory int) int64 { return int64(memory) + int64(memory)/8 }

// generateAuto is the adaptive engine. It probes a memory-sized prefix,
// picks a generator, and re-decides at every run boundary from a rolling
// window of recent input: a decisive regime change drains the current
// generator's buffered state into the successor (Generator.Carry) so the
// switch is exact — no element is lost or reordered across it.
//
// Two guards keep it honest. Hysteresis: a switch needs a decisive rule
// (choose's confident result) and at least one window of fresh input since
// the last switch. Oscillation: if a decisive rule wants a policy that was
// already abandoned, the regime is alternating faster than the window can
// see, so the engine locks onto 2WRS — the one generator no direction
// degenerates — for the rest of the stream. A separate feedback rule drops
// to Quick when the last few runs came out at bare memory size with no
// directional structure: the heap is buying nothing, so stop paying for it.
func generateAuto[T any](src stream.Reader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) (Result, error) {
	less := em.Less
	window := cfg.window()
	ob := newObserver(src, less, window)

	prefix, err := readPrefix[T](ob, cfg.probeRecords())
	if err != nil {
		return Result{}, err
	}
	kind, down, _ := choose(Measure(prefix, less))

	var res Result
	var cur stream.Reader[T] = newPushback[T](prefix, ob)
	// nextEval throttles the rolling measurement: re-deciding costs a ring
	// copy plus the inversion subsample, so it runs at most once per window
	// of fresh input — which is also the switching hysteresis.
	nextEval := ob.count + int64(window)
	shortRuns := 0
	locked := false
	visited := map[Kind]bool{kind: true}

	for {
		gen, err := newGenerator(kind, down, cur, em, cfg, key)
		if err != nil {
			return res, err
		}
		for {
			sp := cfg.Span.Start("run", obs.Str("policy", kind.String()))
			run, ok, err := gen.NextRun()
			if err != nil {
				sp.Drop()
				res.Records = ob.count
				return res, err
			}
			if !ok {
				sp.Drop()
				res.Records = ob.count
				return res, nil
			}
			sp.End(obs.Int("records", run.Records), obs.Bool("concatenable", run.Concatenable))
			res.Runs = append(res.Runs, run)
			res.Policies = append(res.Policies, kind)
			if run.Records <= shortRunSlack(cfg.Memory) {
				shortRuns++
			} else {
				shortRuns = 0
			}
			if locked || ob.count < nextEval {
				continue
			}
			nextEval = ob.count + int64(window)
			want, wantDown, confident := chooseRolling(ob.stats(), kind, shortRuns)
			if !confident || want == kind {
				continue
			}
			if visited[want] {
				// The regime oscillates faster than the window resolves:
				// settle on the generalist for good.
				want, wantDown, locked = TwoWayRS, false, true
				if want == kind {
					continue
				}
			}
			visited[want] = true
			cfg.Span.Event("policy_switch",
				obs.Str("from", kind.String()), obs.Str("to", want.String()),
				obs.Int("record", ob.count))
			kind, down = want, wantDown
			cur = newPushback(gen.Carry(), cur)
			nextEval = ob.count + int64(window)
			shortRuns = 0
			res.Switches++
			break
		}
	}
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

// readPrefix reads up to n elements from r.
func readPrefix[T any](r stream.BatchReader[T], n int) ([]T, error) {
	buf := make([]T, n)
	fill := 0
	for fill < n {
		k, err := r.ReadBatch(buf[fill:])
		fill += k
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if k == 0 {
			break
		}
	}
	return buf[:fill], nil
}

// observer wraps the raw source, counting every element handed out and
// retaining the most recent `window` of them in a ring for rolling order
// statistics. Elements re-fed through pushbacks after a policy switch do
// not pass through it again, so the count is exact and the window always
// reflects fresh input.
type observer[T any] struct {
	br    stream.BatchReader[T]
	less  func(a, b T) bool
	count int64
	ring  []T
	rn    int // elements stored (≤ len(ring))
	rpos  int // next write position
}

func newObserver[T any](src stream.Reader[T], less func(a, b T) bool, window int) *observer[T] {
	o := &observer[T]{br: stream.AsBatchReader(src), less: less}
	if window > 0 {
		o.ring = make([]T, window)
	}
	return o
}

// ReadBatch forwards to the source and notes what passed through.
func (o *observer[T]) ReadBatch(dst []T) (int, error) {
	n, err := o.br.ReadBatch(dst)
	o.count += int64(n)
	if o.ring != nil {
		for _, v := range dst[:n] {
			o.ring[o.rpos] = v
			o.rpos = (o.rpos + 1) % len(o.ring)
			if o.rn < len(o.ring) {
				o.rn++
			}
		}
	}
	return n, err
}

// Read is the element-protocol fallback; consumers all fetch in batches.
func (o *observer[T]) Read() (T, error) {
	var one [1]T
	n, err := o.ReadBatch(one[:])
	if n == 1 {
		return one[0], nil
	}
	if err == nil {
		err = io.EOF
	}
	var zero T
	return zero, err
}

// stats measures the ring's contents in arrival order.
func (o *observer[T]) stats() Stats {
	vals := make([]T, 0, o.rn)
	if o.rn == len(o.ring) {
		vals = append(vals, o.ring[o.rpos:]...)
		vals = append(vals, o.ring[:o.rpos]...)
	} else {
		vals = append(vals, o.ring[:o.rn]...)
	}
	return Measure(vals, o.less)
}

// pushback prepends a queue of elements to a tail reader. Policy switches
// stack them: each switch pushes the outgoing generator's Carry in front of
// whatever the successor would have read next.
type pushback[T any] struct {
	queue []T
	pos   int
	tail  stream.BatchReader[T]
}

func newPushback[T any](queue []T, tail stream.Reader[T]) *pushback[T] {
	return &pushback[T]{queue: queue, tail: stream.AsBatchReader(tail)}
}

// ReadBatch serves the queue first, then the tail.
func (p *pushback[T]) ReadBatch(dst []T) (int, error) {
	if p.pos < len(p.queue) {
		n := copy(dst, p.queue[p.pos:])
		p.pos += n
		return n, nil
	}
	p.queue = nil
	return p.tail.ReadBatch(dst)
}

// Read is the element-protocol fallback.
func (p *pushback[T]) Read() (T, error) {
	var one [1]T
	n, err := p.ReadBatch(one[:])
	if n == 1 {
		return one[0], nil
	}
	if err == nil {
		err = io.EOF
	}
	var zero T
	return zero, err
}
