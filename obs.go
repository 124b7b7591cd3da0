package repro

import (
	"context"
	"io"
	"time"

	"repro/internal/extsort"
	"repro/internal/obs"
)

// This file is the public observability surface: the tracer, metrics
// registry and progress reporter that Config (or the WithTracer /
// WithMetrics / WithProgress options) attach to a sort, plus the skeleton
// every public call runs in (op): context, root span, phases, errors. The
// machinery lives in internal/obs (spill spans: internal/extsort, where the
// spill backend meets its file system); see DESIGN.md §"Observability" for
// the span taxonomy, the metric names and the overhead budget.

// Tracer records the spans of the sorts it is attached to: one "generate" span per sort covering run generation with one child
// "run" span per emitted run, one "merge" span covering the merge phase
// with a "merge_op" child per merge operation, "spill_write"/"spill_read"
// spans on the "spill" track for every spill file (their "bytes" sum to
// the stored bytes of Stats.IO). Each "run" span's "policy" attribute
// names the generator that wrote the run — under "auto", the one its probe
// chose. Export the result with WriteChromeTrace (chrome://tracing /
// Perfetto JSON) or WriteSpansJSONL, or walk Spans directly. A Tracer is safe for concurrent use
// and may be shared by several sorts; a nil Tracer is a valid no-op.
type Tracer = obs.Tracer

// Span is one timed interval recorded by a Tracer.
type Span = obs.Span

// SpanData is the immutable record of a finished Span, as returned by
// Tracer.Spans.
type SpanData = obs.SpanData

// Metrics is a registry of counters and histograms that the sorts it is
// attached to fill from their statistics as each phase ends: records
// in/out, runs emitted and their length distribution, merge operations and
// fan-in, spill I/O, per-phase wall seconds. Expose it with
// WritePrometheus or serve it over HTTP with Handler. A Metrics registry
// is safe for concurrent use and may aggregate several sorts; a nil
// registry is a valid no-op.
type Metrics = obs.Registry

// ProgressConfig configures periodic progress reporting: human-readable
// lines (phase, records processed, rate, ETA when the total is known)
// written to W every Interval (default 1s).
type ProgressConfig = obs.Progress

// PhaseStat is one named phase of an operation's elapsed wall time, as
// reported by Stats.Phases, OpStats.Phases and SelectStats.Phases.
type PhaseStat = extsort.PhaseStat

// NewTracer returns an empty Tracer whose span timestamps count from now.
func NewTracer() *Tracer { return obs.New() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WithTracer attaches a trace recorder to the sorter: every subsequent
// Sort, operator or selection call records its phase, run, merge and
// spill spans into t. Nil detaches tracing (the default).
func WithTracer(t *Tracer) Option {
	return func(s *sorterConfig) error { s.cfg.Trace = t; return nil }
}

// WithMetrics attaches a metrics registry to the sorter: every subsequent
// Sort, operator or selection call adds its counters and histograms to it,
// read off the call's statistics as each phase ends — at the end of run
// generation and when the merge ends, not per batch (WithProgress is the
// live view). Nil detaches metrics (the default).
func WithMetrics(m *Metrics) Option {
	return func(s *sorterConfig) error { s.cfg.Metrics = m; return nil }
}

// WithProgress emits periodic progress lines (phase, records processed,
// rate, ETA when the input size is known) to w every interval; interval 0
// defaults to one second. A nil writer disables reporting (the default).
func WithProgress(w io.Writer, interval time.Duration) Option {
	return func(s *sorterConfig) error {
		if w == nil {
			s.cfg.Progress = nil
			return nil
		}
		s.cfg.Progress = &ProgressConfig{W: w, Interval: interval}
		return nil
	}
}

// op is the skeleton every public entry point runs in — Sort and Resume, the
// operators, the selections and MergeJoin alike. It owns what they all need
// and none of them writes out: the defaulted context, the call's root trace
// span, the phase timer, the mapping of a failure under a dead context to
// ctx.Err(), and the Elapsed/Phases pair of the call's statistics. An entry
// point opens it with startOp, defers finish on its named results, and
// between the two only names the phases its body passes through. The
// zero-cost discipline matches the rest of the layer: with no tracer
// attached the span calls are nil no-ops and two time.Now samples per phase
// remain.
type op struct {
	ctx     context.Context
	sp      *Span
	start   time.Time
	name    string // the open phase; "" before the first
	phaseAt time.Time
	phases  []PhaseStat
}

// startOp defaults the context, opens the call's root span on tr (a nil
// tracer records none) and starts the clock.
func startOp(ctx context.Context, tr *Tracer, name string, attrs ...obs.Attr) *op {
	if ctx == nil {
		ctx = context.Background()
	}
	return &op{ctx: ctx, sp: tr.Start(name, attrs...), start: time.Now()}
}

// phase closes the open phase, if any, and opens the named one. Naming the
// phase that is already open continues it, so the two sides of a join
// share one "generate".
func (o *op) phase(name string) {
	if name == o.name {
		return
	}
	now := time.Now()
	if o.name != "" {
		o.phases = append(o.phases, PhaseStat{Name: o.name, Wall: now.Sub(o.phaseAt)})
	}
	o.name, o.phaseAt = name, now
}

// finish ends the call: a failure under a cancelled or expired context
// becomes the context's own error, whatever transport error it surfaced as;
// the open phase closes; the elapsed time and the phase breakdown are stored
// through the given pointers (nil for Sort, whose Stats the driver timed);
// and the root span ends, annotated with the error when there is one.
func (o *op) finish(elapsed *time.Duration, phases *[]PhaseStat, err *error) {
	if *err != nil && o.ctx.Err() != nil {
		*err = o.ctx.Err()
	}
	o.phase("")
	if elapsed != nil {
		*elapsed, *phases = time.Since(o.start), o.phases
	}
	if *err != nil {
		o.sp.End(obs.Str("error", (*err).Error()))
		return
	}
	o.sp.End()
}
