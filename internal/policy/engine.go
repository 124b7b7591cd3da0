package policy

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/rs"
	"repro/internal/runio"
	"repro/internal/stream"
)

// Generator is the common per-run interface every run generator offers the
// policy layer: NextRun writes exactly one run through the configured
// emitter (ok=false at exhaustion). Every generator is a deterministic
// function of its input and configuration, so a durable sort recovers one by
// replaying it from the first record, never by restoring it. Three types
// implement it: 2WRS's stepper in internal/core, and the heap stepper of
// internal/rs in its two modes (rs and alternating) and its quicksort
// stepper.
type Generator interface {
	NextRun() (run runio.Run, ok bool, err error)
}

// Driven is a Generator as Build builds it, which can also say what Drive
// records about every run. The steppers cannot — they sit below this
// package and know no Kind — so Build names them.
type Driven interface {
	Generator
	// Kind names the fixed policy whose stepper writes the runs: under
	// Auto, the one its probe chose.
	Kind() Kind
}

// fixed is a stepper under the one policy it implements.
type fixed struct {
	Generator
	kind Kind
}

func (f fixed) Kind() Kind { return f.kind }

// Config parameterises policy-driven run generation.
type Config struct {
	// Memory is the budget in elements shared by every generator. It is also
	// the length of Auto's probe prefix.
	Memory int
	// TWRS carries the 2WRS knobs used whenever the 2wrs generator runs;
	// the zero value selects the paper's §5.3 recommendation.
	TWRS core.Config
	// Span, when non-nil, is the enclosing trace span: generation records
	// one child span per run under it. Nil disables tracing at zero cost.
	Span *obs.Span
}

// Result summarises a policy-driven run-generation pass.
type Result struct {
	// Runs lists the generated runs in creation order.
	Runs []runio.Run
	// Records is the total number of elements in Runs — every input element
	// consumed, once the pass has finished.
	Records int64
	// Switches is always 0: a pass runs one generator from start to end,
	// Auto's included. It stays declared because the benchmark module reads
	// it.
	Switches int
}

// Choice is a policy resolved to the fixed stepper that runs it: the policy
// itself, or the one Auto's probe named, with the direction Alternating
// opens in.
type Choice struct {
	// Kind is the fixed policy whose stepper runs.
	Kind Kind
	down bool // Alternating opens with a descending run
}

// Decide resolves kind before any generator is built, once per sort. A fixed
// policy is its own choice. Auto is not a generator but a choice made once:
// it reads a memory-sized prefix of src, classifies its order structure and
// names the fixed policy z prices cheapest for the input (cost.go), with
// Alternating opening in the probe's direction. The input's length is src's
// stream.Sized hint. The returned reader serves src from its first record,
// the probed prefix included, and gives the prefix's buffer back to the
// emitter's scratch once it has served it.
func Decide[T any](kind Kind, src stream.BatchReader[T], em *runio.Emitter[T], z Sizing) (Choice, stream.BatchReader[T], error) {
	if kind != Auto {
		return Choice{Kind: kind}, src, nil
	}
	n := int64(stream.RemainingOf(src))
	prefix, _, err := stream.ReadPrefix(src, em.Scratch.Buffer(z.Memory), z.Memory, nil)
	if err != nil {
		return Choice{}, nil, err
	}
	var c Choice
	sh, down := classify(Measure(prefix, em.Less))
	c.Kind = z.cheapest(sh, n, em.Codec.FixedSize() == 0)
	c.down = down && c.Kind == Alternating
	return c, stream.PrependOwned(prefix, src, em.Scratch.Put), nil
}

// Build returns the stepper of a decided policy, fresh over src: what every
// generator of a sort runs once Decide has spoken for all of them.
func Build[T any](c Choice, src stream.BatchReader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) (Driven, error) {
	if cfg.Memory <= 0 {
		return nil, fmt.Errorf("policy: memory must be positive, got %d", cfg.Memory)
	}
	var gen Generator
	var err error
	switch c.Kind {
	case TwoWayRS:
		gen, err = core.NewStepper(src, em, cfg.TWRS.For(cfg.Memory), key)
	case RS, Alternating:
		gen, err = rs.NewStepper(src, em, cfg.Memory, c.Kind == Alternating, c.down)
	case Quick:
		gen, err = rs.NewQuickStepper(src, em, cfg.Memory)
	default:
		err = errUnknown(c.Kind.String())
	}
	if err != nil {
		return nil, err
	}
	return fixed{gen, c.Kind}, nil
}

// Generate runs the given policy over src from start to end, writing runs
// through em: Decide, Build over what Decide hands back, then Drive. key
// optionally projects elements onto the real line for the 2WRS numeric
// heuristics; nil selects the comparator-only fallbacks. The runs are whole
// on the store when it returns.
func Generate[T any](kind Kind, src stream.BatchReader[T], em *runio.Emitter[T], cfg Config, key func(T) float64) (Result, error) {
	if cfg.Memory <= 0 {
		return Result{}, fmt.Errorf("policy: memory must be positive, got %d", cfg.Memory)
	}
	eb := em.Codec.FixedSize() // the budget's bytes per element, as extsort.Ops counts them
	if eb == 0 {
		eb = 32
	}
	c, src, err := Decide(kind, src, em, Sizing{Memory: cfg.Memory, Merge: merge.Config{MemoryBytes: cfg.Memory * eb}})
	if err != nil {
		return Result{}, err
	}
	gen, err := Build(c, src, em, cfg, key)
	if err != nil {
		return Result{}, err
	}
	return Drive(gen, cfg.Span, nil)
}

// Drive is the one run-generation loop: it steps gen to exhaustion and
// returns the runs it emitted, recording one "run" span per run, tagged
// with the policy that wrote it, under span (nil: none). boundary, when
// set, is called after every run with the generator at rest, no stream
// open; an error from it aborts the pass. On an error the Result holds the
// runs completed before it.
func Drive(gen Driven, span *obs.Span, boundary func(Driven, runio.Run) error) (res Result, err error) {
	for {
		sp := span.Start("run")
		run, ok, err := gen.NextRun()
		if err != nil || !ok {
			sp.Drop()
			return res, err
		}
		sp.End(obs.Str("policy", gen.Kind().String()), obs.Int("records", run.Records), obs.Bool("concatenable", run.Concatenable))
		res.Runs = append(res.Runs, run)
		res.Records += run.Records
		if boundary != nil {
			if err := boundary(gen, run); err != nil {
				return res, err
			}
		}
	}
}
