package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestNilSafety exercises every method on the nil (disabled) forms.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", Str("a", "b"))
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil", sp)
	}
	sp2 := tr.StartOn("spill", "y")
	child := sp.Start("child")
	child.Annotate(Int("n", 1))
	child.End()
	sp.End(Bool("ok", true))
	sp2.Drop()
	if sp.ID() != 0 {
		t.Fatalf("nil span ID = %d", sp.ID())
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer Spans = %v", got)
	}

	var reg *Registry
	c := reg.Counter("c", "help")
	h := reg.Histogram("h", "help", []float64{1, 2})
	c.Add(1)
	h.Observe(1.5)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil collectors retained values")
	}
	if err := reg.WritePrometheus(os.Stderr); err != nil {
		t.Fatal(err)
	}

	var p *Progress
	rep := p.Start("x")
	if rep != nil {
		t.Fatalf("nil progress Start = %v", rep)
	}
	rep.SetPhase("p", 10)
	rep.Add(5)
	rep.Stop()
}

// TestDisabledAllocs asserts the disabled hot-path operations are
// allocation-free: this is what lets call sites instrument
// unconditionally.
func TestDisabledAllocs(t *testing.T) {
	var tr *Tracer
	var c *Counter
	var h *Histogram
	var rep *Reporter
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("run")
		sp.End()
		c.Add(1)
		h.Observe(1)
		rep.Add(64)
		rep.SetPhase("merge", 100)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op, want 0", allocs)
	}
}

// TestEnabledBatchAllocs asserts the per-batch metric updates (the only
// instrumentation inside hot loops) are allocation-free when enabled.
func TestEnabledBatchAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter(MRecordsIn, "records in")
	h := reg.Histogram(MRunLength, "run lengths", RunLengthBuckets)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(64)
		h.Observe(4096)
	})
	if allocs != 0 {
		t.Fatalf("enabled batch path allocates %v per op, want 0", allocs)
	}
}

// fakeClock returns a deterministic clock advancing 1ms per call.
func fakeClock() func() time.Duration {
	var n time.Duration
	return func() time.Duration {
		n += time.Millisecond
		return n
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewWithClock(fakeClock())
	root := tr.Start("sort", Str("alg", "2wrs"))
	gen := root.Start("generate")
	run := gen.Start("run")
	run.End(Int("records", 100))
	gen.End()
	tr.StartOn("spill", "spill_write").End(Int("bytes", 4096))
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["run"].Parent != byName["generate"].ID {
		t.Fatal("run span not parented to generate")
	}
	if byName["generate"].Parent != byName["sort"].ID {
		t.Fatal("generate span not parented to sort")
	}
	if byName["spill_write"].Track != "spill" {
		t.Fatalf("spill span track = %q", byName["spill_write"].Track)
	}
	if byName["sort"].Parent != 0 {
		t.Fatal("root span has a parent")
	}
	for _, sp := range spans {
		if sp.Duration <= 0 {
			t.Fatalf("span %s has non-positive duration %v", sp.Name, sp.Duration)
		}
	}
}

// TestSpanDrop verifies dropped spans are not recorded.
func TestSpanDrop(t *testing.T) {
	tr := New()
	sp := tr.Start("speculative")
	sp.Drop()
	sp.End() // must be a no-op after Drop
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("dropped span recorded, %d spans", n)
	}
}

// TestTracerConcurrent hammers one tracer from many goroutines; run
// under -race this checks the locking discipline.
func TestTracerConcurrent(t *testing.T) {
	tr := New()
	root := tr.Start("merge")
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := root.Start("merge_op")
				sp.End(Int("records", int64(i)))
			}
		}()
	}
	wg.Wait()
	root.End()
	spans := tr.Spans()
	if len(spans) != workers*100+1 {
		t.Fatalf("got %d spans, want %d", len(spans), workers*100+1)
	}
	ids := map[int64]bool{}
	for _, sp := range spans {
		if ids[sp.ID] {
			t.Fatalf("duplicate span id %d", sp.ID)
		}
		ids[sp.ID] = true
		if sp.Name == "merge_op" && sp.Parent != root.ID() {
			t.Fatalf("merge_op parented to %d, want %d", sp.Parent, root.ID())
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", "help", []float64{10, 100})
	for _, v := range []float64{5, 10, 50, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1065 {
		t.Fatalf("sum = %v", h.Sum())
	}
	// Buckets are cumulative in exposition: le=10 → 2, le=100 → 3, +Inf → 4.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`h_bucket{le="10"} 2`,
		`h_bucket{le="100"} 3`,
		`h_bucket{le="+Inf"} 4`,
		`h_sum 1065`,
		`h_count 4`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestRegistryReuse verifies get-or-create semantics across name+labels.
func TestRegistryReuse(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c", "help", Label{"phase", "generate"})
	b := reg.Counter("c", "help", Label{"phase", "generate"})
	other := reg.Counter("c", "help", Label{"phase", "merge"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	if a == other {
		t.Fatal("distinct labels returned the same counter")
	}
	a.Add(2)
	if b.Value() != 2 || other.Value() != 0 {
		t.Fatal("counter identity broken")
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestPrometheusGolden locks down the text exposition format.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MRecordsIn, "Records read from the sort input.").Add(1000000)
	reg.Counter(MRuns, "Sorted runs emitted.").Add(13)
	h := reg.Histogram(MRunLength, "Run length distribution in records.", []float64{256, 1024, 4096})
	h.Observe(100)
	h.Observe(2000)
	h.Observe(1 << 20)
	for _, phase := range []string{"generate", "merge"} {
		ph := reg.Histogram(MPhaseSeconds, "Per-phase wall seconds.", []float64{0.1, 1, 10},
			Label{Name: "phase", Value: phase})
		ph.Observe(0.5)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "prometheus.golden", buf.Bytes())
}

// TestChromeTraceGolden locks down the trace_event export with a
// deterministic clock.
func TestChromeTraceGolden(t *testing.T) {
	tr := NewWithClock(fakeClock())
	root := tr.Start("sort", Str("alg", "2wrs"), Bool("keyed", true))
	gen := root.Start("generate", Str("policy", "auto"))
	gen.Start("run", Str("policy", "rs")).End(Int("records", 250))
	gen.Start("run", Str("policy", "rs")).End(Int("records", 750))
	gen.End()
	w := tr.StartOn("spill", "spill_write", Str("file", "run-0"))
	w.End(Int("bytes", 8192))
	mrg := root.Start("merge", Int("inputs", 2))
	mrg.Start("merge_op", Int("width", 2)).End(Int("records", 1000))
	mrg.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	checkGolden(t, "chrome_trace.golden", buf.Bytes())
}

// TestJSONL verifies every exported line parses independently.
func TestJSONL(t *testing.T) {
	tr := NewWithClock(fakeClock())
	sp := tr.Start("sort")
	sp.Start("generate").End(Int("records", 10))
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteSpansJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
		if m["type"] != "span" {
			t.Fatalf("line %q has type %v", ln, m["type"])
		}
	}
}

// TestReporter drives a reporter with a short tick and checks the output
// shape.
func TestReporter(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	p := &Progress{W: w, Interval: 5 * time.Millisecond}
	rep := p.Start("sort")
	rep.SetPhase("generate", 1000)
	rep.Add(500)
	time.Sleep(30 * time.Millisecond)
	rep.SetPhase("merge", -1)
	rep.Add(250)
	time.Sleep(30 * time.Millisecond)
	rep.Stop()
	rep.Stop() // idempotent

	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "generate") {
		t.Fatalf("no generate line in output:\n%s", out)
	}
	if !strings.Contains(out, "merge") {
		t.Fatalf("no merge line in output:\n%s", out)
	}
	if !strings.Contains(out, "done in") {
		t.Fatalf("no final line in output:\n%s", out)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
