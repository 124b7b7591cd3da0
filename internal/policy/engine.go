package policy

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rs"
	"repro/internal/runio"
	"repro/internal/stream"
)

// Generator is the common per-run interface every run generator offers the
// policy layer: NextRun writes exactly one run through the configured
// emitter (ok=false at exhaustion). Between runs its buffered state —
// heaps, FIFOs, read-ahead — can leave through Carry, the destructive
// hand-off: it surrenders every element, order and run tags dropped, so a
// different generator can take over (Auto's switches). Every generator is a
// deterministic function of its input and configuration, so a durable sort
// recovers one by replaying it from the first record, never by restoring
// it. Four types implement it: 2WRS's stepper in internal/core, the heap
// stepper of internal/rs in its two modes (rs and alternating) and its
// quicksort stepper, and the adaptive engine that wraps whichever of them is
// current.
type Generator[T any] interface {
	NextRun() (run runio.Run, ok bool, err error)
	Carry() []T
}

// Driven is a Generator as NewGenerator builds it, which can also say what
// Drive records about every run. The steppers cannot — they sit below this
// package and know no Kind — so NewGenerator names them.
type Driven[T any] interface {
	Generator[T]
	// Kind names the fixed policy whose stepper wrote the latest run.
	Kind() Kind
	// Switches counts the mid-stream stepper changes so far.
	Switches() int
}

// fixed is a stepper under the one policy it implements.
type fixed[T any] struct {
	Generator[T]
	kind Kind
}

func (f fixed[T]) Kind() Kind  { return f.kind }
func (fixed[T]) Switches() int { return 0 }

// Config parameterises policy-driven run generation.
type Config struct {
	// Memory is the budget in elements shared by every generator. It is also
	// the length of Auto's probe prefix.
	Memory int
	// TWRS carries the 2WRS knobs used whenever the 2wrs generator runs;
	// the zero value selects the paper's §5.3 recommendation.
	TWRS core.Config
	// Span, when non-nil, is the enclosing trace span: generation records
	// one child span per run and one instant event per policy switch
	// under it. Nil disables tracing at zero cost.
	Span *obs.Span
}

// Window is the length of Auto's rolling order-statistics window: Memory,
// clamped to [256, 8192]. The window must be able to span the input's
// structure — one much smaller than the memory budget can mistake one
// ascending tooth of a descending staircase for a sorted stream.
func (c Config) Window() int { return min(max(c.Memory, 256), 8192) }

// Result summarises a policy-driven run-generation pass.
type Result struct {
	// Runs lists the generated runs in creation order.
	Runs []runio.Run
	// Policies names the generator that produced each run: Policies[i]
	// made Runs[i].
	Policies []Kind
	// Records is the total number of elements in Runs — every input element
	// consumed, once the pass has finished.
	Records int64
	// Switches counts mid-stream generator changes (always 0 for fixed
	// policies).
	Switches int
}

// newStepper builds the stepper of a fixed policy over src; down selects
// Alternating's first run direction.
func newStepper[T any](kind Kind, down bool, src stream.BatchReader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) (Generator[T], error) {
	switch kind {
	case TwoWayRS:
		return core.NewStepper(src, em, cfg.TWRS.For(cfg.Memory), key)
	case RS, Alternating:
		return rs.NewStepper(src, em, cfg.Memory, kind == Alternating, down)
	case Quick:
		return rs.NewQuickStepper(src, em, cfg.Memory)
	default:
		return nil, errUnknown(kind.String())
	}
}

// NewGenerator is the one constructor of run generators: the stepper of a
// fixed policy, or Auto's adaptive engine over whichever stepper is
// current, fresh over src. key optionally projects elements onto the real
// line for the 2WRS numeric heuristics; nil selects the comparator-only
// fallbacks. Step the result with Drive.
func NewGenerator[T any](kind Kind, src stream.BatchReader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) (Driven[T], error) {
	if cfg.Memory <= 0 {
		return nil, fmt.Errorf("policy: memory must be positive, got %d", cfg.Memory)
	}
	if kind == Auto {
		return newAdaptive(src, em, cfg, key), nil
	}
	gen, err := newStepper(kind, false, src, em, cfg, key)
	if err != nil {
		return nil, err
	}
	return fixed[T]{gen, kind}, nil
}

// Generate runs the given policy over src from start to end, writing runs
// through em: NewGenerator, then Drive, then the emitter's Barrier, so the
// runs are whole on the store when it returns.
func Generate[T any](kind Kind, src stream.BatchReader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) (Result, error) {
	gen, err := NewGenerator(kind, src, em, cfg, key)
	if err != nil {
		return Result{}, err
	}
	res, err := Drive(gen, cfg.Span, nil)
	if berr := em.Barrier(); err == nil {
		err = berr
	}
	return res, err
}

// Drive is the one run-generation loop: it steps gen to exhaustion and
// returns the runs it emitted with the policy that wrote each, recording
// one "run" span per run under span (nil: none). boundary, when set, is
// called after every run with the generator at rest, no stream open; an
// error from it aborts the pass. On an error
// the Result holds the runs completed before it.
func Drive[T any](gen Driven[T], span *obs.Span, boundary func(Driven[T], runio.Run) error) (res Result, err error) {
	defer func() { res.Switches = gen.Switches() }()
	for {
		sp := span.Start("run")
		run, ok, err := gen.NextRun()
		if err != nil || !ok {
			sp.Drop()
			return res, err
		}
		sp.End(obs.Str("policy", gen.Kind().String()), obs.Int("records", run.Records), obs.Bool("concatenable", run.Concatenable))
		res.Runs = append(res.Runs, run)
		res.Policies = append(res.Policies, gen.Kind())
		res.Records += run.Records
		if boundary != nil {
			if err := boundary(gen, run); err != nil {
				return res, err
			}
		}
	}
}
