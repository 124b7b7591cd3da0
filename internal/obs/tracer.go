package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// SpanData is one completed span as recorded by a Tracer.
type SpanData struct {
	// ID is the span's unique identifier within its Tracer (1-based).
	ID int64
	// Parent is the ID of the enclosing span, or 0 for a root span.
	Parent int64
	// Name is the span's name, e.g. "generate" or "merge_op".
	Name string
	// Track groups spans onto a named timeline in exported traces.
	// Spans inherit their parent's track; the empty track renders as
	// "sort".
	Track string
	// Start is the span's start time relative to the Tracer's epoch.
	Start time.Duration
	// Duration is the span's wall duration.
	Duration time.Duration
	// Attrs holds the span's annotations, Start attrs first.
	Attrs []Attr
}

// Tracer records spans. A nil *Tracer is the disabled tracer: every method
// on it (and on the nil *Span values it returns) is an allocation-free
// no-op. Tracers are safe for concurrent use; an
// individual *Span must be ended by the goroutine that owns it.
type Tracer struct {
	clock func() time.Duration
	ids   atomic.Int64
	mu    sync.Mutex
	spans []SpanData
}

// New returns a Tracer whose clock is wall time relative to the call.
func New() *Tracer {
	epoch := time.Now()
	return &Tracer{clock: func() time.Duration { return time.Since(epoch) }}
}

// NewWithClock returns a Tracer driven by an arbitrary monotonic clock;
// used by tests to produce deterministic traces.
func NewWithClock(clock func() time.Duration) *Tracer {
	return &Tracer{clock: clock}
}

// Span is an in-progress operation. Create with Tracer.Start/StartOn or
// Span.Start, finish with End (or discard with Drop). A nil *Span is the
// disabled span; all methods on it are no-ops.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	track  string
	start  time.Duration
	attrs  []Attr
	done   bool
}

func (t *Tracer) startSpan(track string, parent int64, name string, attrs []Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{t: t, id: t.ids.Add(1), parent: parent, name: name, track: track, start: t.clock()}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	return s
}

// Start begins a root span on the default track.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	return t.startSpan("", 0, name, attrs)
}

// StartOn begins a root span on the named track (e.g. "spill").
func (t *Tracer) StartOn(track, name string, attrs ...Attr) *Span {
	return t.startSpan(track, 0, name, attrs)
}

// Start begins a child span on the receiver's track.
func (s *Span) Start(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.t.startSpan(s.track, s.id, name, attrs)
}

// Annotate appends attributes to the span before it ends.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil || s.done {
		return
	}
	s.attrs = append(s.attrs, attrs...)
}

// End completes the span, appending any final attributes, and records it
// with the tracer. End is idempotent; only the first call records.
func (s *Span) End(attrs ...Attr) {
	if s == nil || s.done {
		return
	}
	s.done = true
	end := s.t.clock()
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	d := SpanData{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Track:    s.track,
		Start:    s.start,
		Duration: end - s.start,
		Attrs:    s.attrs,
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, d)
	s.t.mu.Unlock()
}

// Drop discards the span without recording it — used when a speculative
// span turns out to cover no work (e.g. the NextRun call that reports
// end of input).
func (s *Span) Drop() {
	if s == nil {
		return
	}
	s.done = true
}

// ID returns the span's identifier (0 for a nil span).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Spans returns a copy of all completed spans in completion order.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	return out
}
