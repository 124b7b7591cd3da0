package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
)

// shuffledInt64 returns n pseudo-random int64s from a fixed seed.
func shuffledInt64(n int) []int64 {
	rng := rand.New(rand.NewSource(42))
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = rng.Int63()
	}
	return vals
}

// parsePrometheus parses the text exposition into series → value, keyed by
// the full series name including labels (e.g. `m_bucket{le="+Inf"}`).
func parsePrometheus(t *testing.T, text string) map[string]float64 {
	t.Helper()
	m := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		m[line[:i]] = v
	}
	return m
}

// TestObsSmoke drives a spilling keyed sort with every observability hook
// attached and validates the three exports: the Prometheus exposition
// matches the final Stats and Stats.IO exactly, the Chrome trace is
// well-formed with the generate and merge spans covering the elapsed
// time, and the progress reporter produced output.
func TestObsSmoke(t *testing.T) {
	tr := repro.NewTracer()
	reg := repro.NewMetrics()
	var progress bytes.Buffer
	s, err := repro.New(func(a, b int64) bool { return a < b },
		repro.WithMemoryRecords(5_000),
		repro.WithTracer(tr),
		repro.WithMetrics(reg),
		repro.WithProgress(&progress, 5*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200_000
	out, stats, err := s.SortSlice(context.Background(), shuffledInt64(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n {
		t.Fatalf("sorted %d of %d records", len(out), n)
	}
	for i := 1; i < len(out); i++ {
		if out[i] < out[i-1] {
			t.Fatalf("output out of order at %d", i)
		}
	}
	if stats.Runs < 2 {
		t.Fatalf("expected a spilling sort, got %d runs", stats.Runs)
	}
	if !stats.Keyed {
		t.Fatalf("expected the keyed path for int64 elements")
	}

	// Prometheus exposition equals the final Stats / Stats.IO.
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	series := parsePrometheus(t, prom.String())
	want := map[string]float64{
		"extsort_records_in_total":                      float64(stats.Records),
		"extsort_records_out_total":                     float64(stats.Records),
		"extsort_runs_total":                            float64(stats.Runs),
		"extsort_run_length_records_count":              float64(stats.Runs),
		"extsort_run_length_records_sum":                float64(stats.Records),
		"extsort_spilled_raw_bytes_total":               float64(stats.IO.RawBytesWritten),
		"extsort_read_raw_bytes_total":                  float64(stats.IO.RawBytesRead),
		"extsort_spill_blocks_written_total":            float64(stats.IO.BlocksWritten),
		"extsort_spill_blocks_read_total":               float64(stats.IO.BlocksRead),
		`extsort_phase_seconds_count{phase="generate"}`: 1,
		`extsort_phase_seconds_count{phase="merge"}`:    1,
	}
	for name, v := range want {
		got, ok := series[name]
		if !ok {
			t.Errorf("exposition is missing series %s", name)
			continue
		}
		if got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if series["extsort_merge_ops_total"] < 1 {
		t.Errorf("expected at least one merge op, got %v", series["extsort_merge_ops_total"])
	}

	// Chrome trace: well-formed JSON whose generate and merge spans
	// account for (nearly) all of the sort's elapsed time.
	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}

	counts := make(map[string]int)
	var phaseWall time.Duration
	for _, sp := range tr.Spans() {
		counts[sp.Name]++
		if sp.Name == "generate" || sp.Name == "merge" {
			phaseWall += sp.Duration
		}
	}
	if counts["generate"] != 1 || counts["merge"] != 1 {
		t.Fatalf("want exactly one generate and one merge span, got %v", counts)
	}
	if counts["run"] != stats.Runs {
		t.Errorf("traced %d run spans for %d runs", counts["run"], stats.Runs)
	}
	if counts["spill_write"] < stats.Runs {
		t.Errorf("traced %d spill_write spans for %d runs", counts["spill_write"], stats.Runs)
	}
	if counts["merge_op"] < 1 {
		t.Errorf("no merge_op spans recorded")
	}
	if phaseWall < stats.Elapsed*9/10 {
		t.Errorf("generate+merge spans cover %v of %v elapsed", phaseWall, stats.Elapsed)
	}

	if !strings.Contains(progress.String(), "done in") {
		t.Errorf("progress output missing completion line: %q", progress.String())
	}
}

// TestWideMergeLandsInAFiniteFanInBucket merges 70 runs in one operation:
// the fan-in histogram counts it in its 128 bucket, not only in +Inf, so a
// derived fan-in of up to 1,023 is told apart from the paper's 10.
func TestWideMergeLandsInAFiniteFanInBucket(t *testing.T) {
	reg := repro.NewMetrics()
	const memory, runs = 1000, 70
	s, err := repro.New(func(a, b int64) bool { return a < b },
		repro.WithMemoryRecords(memory), repro.WithPolicy("quick"), repro.WithFanIn(100), repro.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := s.SortSlice(context.Background(), shuffledInt64(memory*runs))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != runs || stats.MergeOps != 1 {
		t.Fatalf("%d runs in %d merge operations, want %d in one", stats.Runs, stats.MergeOps, runs)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	series := parsePrometheus(t, prom.String())
	for le, want := range map[string]float64{"64": 0, "128": 1, "1024": 1, "+Inf": 1} {
		name := `extsort_merge_fan_in_bucket{le="` + le + `"}`
		if got, ok := series[name]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
		}
	}
}

// phasesWithinElapsed asserts the Phases breakdown is consistent with
// Elapsed and carries exactly the expected phase names in order.
func phasesWithinElapsed(t *testing.T, what string, elapsed time.Duration, phases []repro.PhaseStat, names ...string) {
	t.Helper()
	if elapsed <= 0 {
		t.Errorf("%s: Elapsed = %v, want > 0", what, elapsed)
	}
	var sum time.Duration
	var got []string
	for _, ph := range phases {
		if ph.Wall < 0 {
			t.Errorf("%s: phase %s has negative wall %v", what, ph.Name, ph.Wall)
		}
		sum += ph.Wall
		got = append(got, ph.Name)
	}
	if sum > elapsed {
		t.Errorf("%s: phases sum to %v > elapsed %v", what, sum, elapsed)
	}
	if strings.Join(got, ",") != strings.Join(names, ",") {
		t.Errorf("%s: phases %v, want %v", what, got, names)
	}
}

// TestPhasesAccountForElapsed is the regression test for the Elapsed /
// Phases contract across every entry point: the named phases always sum
// to at most the elapsed time, and each path reports its documented
// phase sequence.
func TestPhasesAccountForElapsed(t *testing.T) {
	ctx := context.Background()
	newSorter := func(mem int) *repro.Sorter[int64] {
		s, err := repro.New(func(a, b int64) bool { return a < b },
			repro.WithMemoryRecords(mem))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	vals := shuffledInt64(20_000)
	spill := newSorter(1_000) // forces the external paths
	mem := newSorter(1 << 20) // everything fits

	_, stats, err := spill.SortSlice(ctx, vals)
	if err != nil {
		t.Fatal(err)
	}
	phasesWithinElapsed(t, "SortSlice", stats.Elapsed, stats.Phases, "generate", "merge")

	_, sstats, err := mem.Select(ctx, sliceSource(vals), 100)
	if err != nil {
		t.Fatal(err)
	}
	phasesWithinElapsed(t, "Select/mem", sstats.Elapsed, sstats.Phases, "read", "partition")

	_, sstats, err = spill.Select(ctx, sliceSource(vals), 100)
	if err != nil {
		t.Fatal(err)
	}
	phasesWithinElapsed(t, "Select/spill", sstats.Elapsed, sstats.Phases, "read", "generate", "select")
	phasesWithinElapsed(t, "Select/spill sort", sstats.Sort.Elapsed, sstats.Sort.Phases, "generate")

	_, qstats, err := spill.Quantiles(ctx, sliceSource(vals), []float64{0.25, 0.5, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	phasesWithinElapsed(t, "Quantiles/spill", qstats.Elapsed, qstats.Phases, "read", "generate", "select")

	var sink discard[int64]
	ostats, err := spill.BottomK(ctx, sliceSource(vals), 5_000, &sink)
	if err != nil {
		t.Fatal(err)
	}
	phasesWithinElapsed(t, "BottomK/spill", ostats.Elapsed, ostats.Phases, "generate", "select")

	ostats, err = mem.TopK(ctx, sliceSource(vals), 100, &sink)
	if err != nil {
		t.Fatal(err)
	}
	phasesWithinElapsed(t, "TopK/mem", ostats.Elapsed, ostats.Phases, "select")

	ostats, err = spill.Distinct(ctx, sliceSource(vals), &sink)
	if err != nil {
		t.Fatal(err)
	}
	phasesWithinElapsed(t, "Distinct", ostats.Elapsed, ostats.Phases, "generate", "distinct")
}

type discard[T any] struct{ n int }

func (d *discard[T]) Write(T) error { d.n++; return nil }

// TestSpanNestingParallelMerges checks the span tree invariants under a
// parallel merge: every run span hangs off the generate span, every
// merge_op span off the merge span, and no span references an unknown
// parent. Run with -race this also exercises the tracer's thread safety.
// The budget, 8 Ki int64s (64 KiB), feeds four 3-way merges at once at a
// page a block, and the quick policy's 13 runs give them work.
func TestSpanNestingParallelMerges(t *testing.T) {
	tr := repro.NewTracer()
	s, err := repro.New(func(a, b int64) bool { return a < b },
		repro.WithPolicy("quick"),
		repro.WithMemoryRecords(8<<10),
		repro.WithFanIn(3),
		repro.WithParallelism(4),
		repro.WithTracer(tr),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SortSlice(context.Background(), shuffledInt64(100_000)); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byID := make(map[int64]string, len(spans))
	var genID, mrgID int64
	for _, sp := range spans {
		byID[sp.ID] = sp.Name
		switch sp.Name {
		case "generate":
			genID = sp.ID
		case "merge":
			mrgID = sp.ID
		}
	}
	if genID == 0 || mrgID == 0 {
		t.Fatalf("missing generate/merge spans")
	}
	for _, sp := range spans {
		if sp.Parent != 0 {
			if _, ok := byID[sp.Parent]; !ok {
				t.Errorf("span %s (%d) references unknown parent %d", sp.Name, sp.ID, sp.Parent)
			}
		}
		switch sp.Name {
		case "run":
			if sp.Parent != genID {
				t.Errorf("run span %d parented to %d, want generate %d", sp.ID, sp.Parent, genID)
			}
		case "merge_op", "merge_final":
			if sp.Parent != mrgID {
				t.Errorf("%s span %d parented to %d, want merge %d", sp.Name, sp.ID, sp.Parent, mrgID)
			}
		}
	}
}

// TestMetricsOverheadGuard fails when a metrics+tracing-enabled sort
// regresses more than 5% (plus a small absolute cushion against scheduler
// noise) over the same sort with observability disabled. Mirrors the
// BENCH overhead row; skipped in -short mode.
func TestMetricsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	vals := shuffledInt64(300_000)
	sortOnce := func(opts ...repro.Option) time.Duration {
		opts = append([]repro.Option{repro.WithMemoryRecords(20_000)}, opts...)
		s, err := repro.New(func(a, b int64) bool { return a < b }, opts...)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, _, err := s.SortSlice(context.Background(), vals); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// The two sides are timed in interleaved pairs — plain, observed, plain,
	// observed, … — and their minima compared: whatever loads the machine
	// for a while (go test runs packages side by side) then lands on both
	// sides, not on whichever was being timed. The comparison is retried a
	// few times before failing: minima damp scheduler noise but do not
	// eliminate it.
	var plain, observed time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		plain, observed = time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for pair := 0; pair < 3; pair++ {
			plain = min(plain, sortOnce())
			observed = min(observed, sortOnce(repro.WithTracer(repro.NewTracer()), repro.WithMetrics(repro.NewMetrics())))
		}
		if observed <= plain+plain/20+20*time.Millisecond {
			return
		}
	}
	t.Fatalf("observability overhead too high: enabled %v vs disabled %v (>5%%)", observed, plain)
}
