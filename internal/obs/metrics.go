package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	// Name is the label name, e.g. "phase".
	Name string
	// Value is the label value, e.g. "generate".
	Value string
}

// Counter is a monotonically increasing metric. A nil *Counter is the
// disabled counter; Add on it is an allocation-free no-op. Counters are
// safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the counter's current value (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram. A nil *Histogram is
// the disabled histogram; Observe on it is an allocation-free no-op.
// Histograms are safe for concurrent use.
type Histogram struct {
	bounds []float64      // upper bounds, ascending; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// metricKind discriminates series within a Registry.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindHistogram
)

// series is one named+labelled time series in a Registry.
type series struct {
	labels []Label
	c      *Counter
	h      *Histogram
}

// family is all series sharing a metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. A nil *Registry is the disabled registry: the
// collector constructors return nil collectors, so instrumented code
// needs no enabled/disabled branches. Registries are safe for concurrent
// use; collectors should be resolved once per operation, not in hot
// loops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func labelsKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte('\x00')
		b.WriteString(l.Value)
		b.WriteByte('\x00')
	}
	return b.String()
}

// lookup returns the series for name+labels, creating family, series and
// collector as needed — all under the registry lock, so concurrent sorts
// sharing a registry can resolve the same series safely.
// It panics if the name is reused with a different kind. buckets is used
// only when a histogram series is created.
func (r *Registry) lookup(name, help string, kind metricKind, buckets []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic("obs: metric " + name + " registered with conflicting kinds")
	}
	key := labelsKey(labels)
	for _, s := range f.series {
		if labelsKey(s.labels) == key {
			return s
		}
	}
	s := &series{labels: append([]Label(nil), labels...)}
	switch kind {
	case kindCounter:
		s.c = &Counter{}
	case kindHistogram:
		s.h = &Histogram{bounds: append([]float64(nil), buckets...)}
		s.h.counts = make([]atomic.Int64, len(buckets)+1)
	}
	f.series = append(f.series, s)
	return s
}

// Counter returns the counter series for name+labels, registering it on
// first use. Returns nil on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindCounter, nil, labels).c
}

// Histogram returns the histogram series for name+labels with the given
// ascending upper bucket bounds (+Inf implied), registering it on first
// use. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, kindHistogram, buckets, labels).h
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func writeLabels(b *strings.Builder, labels []Label, extra ...Label) {
	all := labels
	if len(extra) > 0 {
		all = append(append([]Label(nil), labels...), extra...)
	}
	if len(all) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered family in Prometheus text
// exposition format (version 0.0.4), families in registration order and
// series in creation order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		kind := "counter"
		if f.kind == kindHistogram {
			kind = "histogram"
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, kind)
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				b.WriteString(f.name)
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %d\n", s.c.Value())
			case kindHistogram:
				cum := int64(0)
				for i, bound := range s.h.bounds {
					cum += s.h.counts[i].Load()
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, s.labels, Label{Name: "le", Value: formatFloat(bound)})
					fmt.Fprintf(&b, " %d\n", cum)
				}
				cum += s.h.counts[len(s.h.bounds)].Load()
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(&b, s.labels, Label{Name: "le", Value: "+Inf"})
				fmt.Fprintf(&b, " %d\n", cum)
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %s\n", formatFloat(s.h.Sum()))
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %d\n", s.h.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler returns an http.Handler serving the registry in Prometheus
// text exposition format, suitable for mounting at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
