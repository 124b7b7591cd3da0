package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/record"
)

// The footprint child is a re-execution of the running binary; under go
// test that is the test binary, which then has to behave like the command.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		if err := run(os.Args[1:]); err != nil {
			os.Stderr.WriteString("benchmark: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func recs(keys ...int64) []record.Record {
	out := make([]record.Record, len(keys))
	for i, k := range keys {
		out[i] = record.Record{Key: k, Aux: uint64(i)}
	}
	return out
}

func TestVerifySinkCatchesFailures(t *testing.T) {
	input := recs(1, 2, 3, 4, 5)
	want := fingerprintOf(input, hashRecord)
	feed := func(out []record.Record) error {
		sink := &verifySink[record.Record]{less: record.Less, hash: hashRecord}
		if err := sink.WriteBatch(out); err != nil {
			return err
		}
		return sink.check(want)
	}
	if err := feed(input); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	swapped := []record.Record{input[0], input[2], input[1], input[3], input[4]}
	if err := feed(swapped); !errors.Is(err, errOutOfOrder) {
		t.Errorf("swapped pair: got %v, want errOutOfOrder", err)
	}
	if err := feed(input[:4]); err == nil || !strings.Contains(err.Error(), "4 elements") {
		t.Errorf("dropped record: got %v, want a count mismatch", err)
	}
	altered := append([]record.Record(nil), input...)
	altered[2].Aux = 99 // same keys, same order, same count: only the fingerprint can tell
	if err := feed(altered); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("altered payload: got %v, want a fingerprint mismatch", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},     // overlaps a: the union is [10,50)
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 1, Name: "file", Start: 0, End: 100, Aggregate: true, BusyNS: 15},
		{ID: 6, Parent: 3, Name: "inner", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - 40 - 10 - 15,
		2: 20,
		3: 30 - 10,
		4: 30,
		5: 100,
		6: 10,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestSummarizeQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize("x", []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Value != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 || s.N != 10 {
		t.Errorf("summary = %+v", s)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if s := summarize("x", []float64{4, 1, 2}); s.Q1 != 1 || s.Value != 2 || s.Q3 != 4 {
		t.Errorf("summary of three = %+v", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// A timing in absolute units is headed by its fastest sample, everything
// else by the median.
func TestRecordHeadline(t *testing.T) {
	r := &result{Metrics: map[string]summary{}}
	for name, want := range map[string]float64{
		"cpu_ns_per_rec":   1, // lower is better: the least
		"sort_rec_per_s":   4, // higher is better: the greatest
		"sort_wall_vs_ref": 2, // a ratio within a pair: the median
	} {
		r.record(name, 4, 1, 2)
		if s := r.Metrics[name]; s.Value != want || s.Median != 2 {
			t.Errorf("%s: headline %v (median %v), want %v (2)", name, s.Value, s.Median, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metric{Name: "t", Better: "lower", Bound: 0.10}
	tight := func(v float64) summary {
		return summary{Value: v, Median: v, Q1: v * 0.99, Q3: v * 1.01, Min: v * 0.98, Max: v * 1.02, N: 9}
	}
	noisy := func(v float64) summary {
		return summary{Value: v, Median: v, Q1: v * 0.8, Q3: v * 1.2, Min: v * 0.5, Max: v * 1.5, N: 9}
	}
	for _, c := range []struct {
		name string
		m    metric
		a, b summary
		want string
	}{
		{"same", lower, tight(100), tight(103), "within-bound"},
		{"worse", lower, tight(100), tight(120), "worse"},
		{"better", lower, tight(100), tight(80), "better"},
		{"noisy medians apart", lower, noisy(100), noisy(120), "unresolved"},
		{"noisy medians together", lower, noisy(100), noisy(101), "unresolved"},
		{"higher is better", metric{Better: "higher", Bound: 0.10}, tight(100), tight(80), "worse"},
		{"under the floor", metric{Better: "lower", Bound: 0.05, Floor: 1}, tight(2), tight(2.5), "within-bound"},
	} {
		if got := compare(c.m, c.a, c.b).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if v := compare(lower, tight(100), tight(120)); math.Abs(v.Worse-0.20) > 1e-12 {
		t.Errorf("worse = %v, want 0.20 of A", v.Worse)
	}
}

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || strings.Join(doc.Command, " ") != "bash benchmark/run.sh" {
		t.Errorf("command %q over paths %q", doc.Command, doc.Paths)
	}
	// BENCHMARK.json gates a subset of the workloads (see specs): each one
	// it names is defined here, with the same reason.
	if len(doc.Workloads) < 2 {
		t.Fatalf("%d workloads declared, want at least 2", len(doc.Workloads))
	}
	for _, d := range doc.Workloads {
		if s, ok := findSpec(d.Name); !ok || d.Why != s.why {
			t.Errorf("BENCHMARK.json has workload %q (%q), the code %q", d.Name, d.Why, s.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(doc.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		if d := doc.EndToEnd[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, d, m)
		}
	}
	if len(doc.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(doc.PerLayer), len(perLayerMetrics))
	}
	for i, m := range perLayerMetrics {
		if d := doc.PerLayer[i]; d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the code %+v", i, d, m)
		}
	}
}

// smokeParams runs everything at 1/100 of the declared sizes.
func smokeParams(t *testing.T) params {
	return params{seed: 42, seconds: 0.05, scale: 100, root: t.TempDir()}
}

// checkLine asserts the one-line result names exactly the declared
// metrics, each with its declared unit.
func checkLine(t *testing.T, res *result, decls []metric) {
	t.Helper()
	line, err := driverLine(res, decls)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("%v in %s", err, line)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
	}
	if len(out.Metrics) != len(decls) {
		t.Errorf("%d metrics emitted, %d declared", len(out.Metrics), len(decls))
	}
	for _, d := range decls {
		if m, ok := out.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: emitted %+v (present: %v), declared unit %q", d.Name, m, ok, d.Unit)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads")
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			res, err := s.build().endToEnd(smokeParams(t))
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, res, endToEndMetrics)
			if res.Evidential {
				t.Error("a scaled-down run must be marked as not evidence")
			}
			for _, m := range slices.Concat(endToEndMetrics, contextMetrics) {
				if v := res.Metrics[m.Name].Value; v <= 0 {
					t.Errorf("%s = %v, want a positive value", m.Name, v)
				}
			}
		})
	}
}

func TestSmokeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all six workloads")
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			p := smokeParams(t)
			spans := filepath.Join(p.root, "spans.jsonl")
			res, err := s.build().trace(p, spans)
			if err != nil {
				t.Fatal(err)
			}
			checkLine(t, res, perLayerMetrics)
			f, err := os.Open(spans)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			names := map[string]int{}
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var sp span
				if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
					t.Fatalf("span line %q: %v", sc.Text(), err)
				}
				if sp.End < sp.Start || sp.SortID < 1 {
					t.Errorf("malformed span %+v", sp)
				}
				names[sp.Name]++
			}
			for _, want := range []string{spanSort, spanSource, spanSink, spanFile} {
				if names[want] == 0 {
					t.Errorf("no %q span among %v", want, names)
				}
			}
		})
	}
}

// A sort whose output does not verify must be counted, reported and turn
// the result incorrect. The workload below hashes unrepeatably, so no
// output can ever match its input's fingerprint.
func TestFailuresAreCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	w := recordWorkload("spill_merge", 200_000, 1<<10, []gen.Kind{gen.Random})
	calls := uint64(0)
	w.hash = func(r record.Record) uint64 { calls++; return calls }
	res, err := w.endToEnd(smokeParams(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.failFrac() == 0 {
		t.Fatalf("failed = %d of %d, want failures", res.Failed, res.Attempted)
	}
	res.Metrics = map[string]summary{"setup_s": summarize("s", []float64{1})}
	line, err := driverLine(res, endToEndMetrics[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"correct":false`) {
		t.Errorf("line %s does not report the failure", line)
	}
}
