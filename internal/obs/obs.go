// Package obs is the library's observability layer: a low-overhead span
// tracer, a metrics registry (counters and fixed-bucket histograms)
// with Prometheus text exposition, Chrome trace_event and JSONL span
// exporters, and a tick-based progress reporter.
//
// Everything is nil-safe by design: the disabled state of every hook is a
// nil pointer, and every method on a nil *Tracer, *Span, *Registry,
// *Counter, *Histogram or *Reporter is a no-op that allocates
// nothing. Call sites therefore instrument unconditionally — no branches,
// no interface indirection — and a sort with observability off pays only
// the nil checks. Instrumented code updates metrics at batch or run
// granularity, never per element, so the hot paths stay allocation-free
// with observability on too (see DESIGN.md §13 for the overhead budget).
//
// A Tracer collects completed spans in memory; the sort is seconds and the
// span count is proportional to runs + merge operations + spill files, so
// a bounded buffer or streaming export is not needed. Export after the
// fact with Tracer.WriteChromeTrace (a chrome://tracing / Perfetto file)
// or Tracer.WriteSpansJSONL (one JSON object per line).
package obs

import "strconv"

// attrKind discriminates the payload of an Attr.
type attrKind uint8

const (
	attrStr attrKind = iota
	attrInt
	attrBool
)

// Attr is one key/value annotation on a span or event. Construct with Str,
// Int or Bool; the zero Attr is an empty string attribute.
type Attr struct {
	// Key names the attribute.
	Key  string
	kind attrKind
	str  string
	num  int64
}

// Str returns a string-valued attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: attrStr, str: v} }

// Int returns an integer-valued attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, kind: attrInt, num: v} }

// Bool returns a boolean-valued attribute.
func Bool(key string, v bool) Attr {
	n := int64(0)
	if v {
		n = 1
	}
	return Attr{Key: key, kind: attrBool, num: n}
}

// Value returns the attribute's payload as a string, int64 or bool.
func (a Attr) Value() any {
	switch a.kind {
	case attrInt:
		return a.num
	case attrBool:
		return a.num != 0
	default:
		return a.str
	}
}

// String renders the attribute's payload for human-readable output.
func (a Attr) String() string {
	switch a.kind {
	case attrInt:
		return strconv.FormatInt(a.num, 10)
	case attrBool:
		return strconv.FormatBool(a.num != 0)
	default:
		return a.str
	}
}
