package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"
)

// metric declares one reported number. BENCHMARK.json carries the same
// declarations for the driver; TestBenchmarkJSONMatchesDeclarations keeps
// the two identical.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64
	// Floor is an absolute difference below which diff and selfcheck call
	// two values equal whatever their ratio: 1 B/record of allocation is
	// noise even when it is 20% of 5 B.
	Floor float64
	// Fastest marks a timing in absolute units, reported as the best of its
	// samples and not their median: the neighbours on a shared host only
	// ever add time, so the fastest repetition is the one they disturbed
	// least (README, "Noise floor").
	Fastest bool
}

// endToEndMetrics are the gated metrics, the ones BENCHMARK.json declares.
// The two timings of the sort are ratios to the reference pass (see
// workload.reference): in absolute units they follow the host's other
// tenants, by 15-25% within minutes on this box and by 45% on a workload
// whose heap outgrows the cache.
var endToEndMetrics = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sort_wall_vs_ref", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "sort_cpu_vs_ref", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "alloc_bytes_per_rec", Unit: "B", Better: "lower", Bound: 0.20, Floor: 1},
	{Name: "allocs_per_rec", Unit: "count", Better: "lower", Bound: 0.20, Floor: 0.01},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "spill_write_amp", Unit: "ratio", Better: "lower", Bound: 0.05},
}

// contextMetrics are the same timed sorts in absolute units, with the
// reference pass they were divided by. The suite reports them; they gate
// nothing and the driver's line and diff leave them out: on a shared host
// they say as much about the hour as about the code.
var contextMetrics = []metric{
	{Name: "sort_rec_per_s", Unit: "1/s", Better: "higher", Fastest: true},
	{Name: "cpu_ns_per_rec", Unit: "ns", Better: "lower", Fastest: true},
	{Name: "ref_ns_per_rec", Unit: "ns", Better: "lower", Fastest: true},
}

// result is what one run of one workload produced.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Scale    int    `json:"scale"`
	Traced   bool   `json:"traced"`
	// Evidential is false when the numbers must not be used as evidence
	// for or against a change; Caveats says why.
	Evidential bool     `json:"evidential"`
	Caveats    []string `json:"caveats,omitempty"`
	Records    int64    `json:"records"`
	tally
	Metrics map[string]summary `json:"metrics"`
	// Datasets holds the traced pass's per-dataset rows for workloads with
	// more than one input.
	Datasets map[string]map[string]float64 `json:"datasets,omitempty"`
	Spans    string                        `json:"spans,omitempty"`
	Env      environment                   `json:"env"`
}

func newResult(workload string, p params, traced bool) *result {
	r := &result{
		Workload: workload, Seed: p.seed, Scale: p.scale, Traced: traced,
		Evidential: true, Metrics: map[string]summary{}, Env: recordEnvironment(p.root),
	}
	if p.scale != 1 {
		r.caveat(fmt.Sprintf("scaled down to 1/%d of the declared size", p.scale))
	}
	if p.n != 0 {
		r.caveat(fmt.Sprintf("element count overridden to %d", p.n))
	}
	return r
}

// record summarises the samples of one metric under its declared unit,
// headed by their median or, for a timing in absolute units, by the best of
// them. Every name recorded is a declared one.
func (r *result) record(name string, samples ...float64) {
	var decl metric
	for _, list := range [][]metric{endToEndMetrics, contextMetrics, perLayerMetrics} {
		for _, m := range list {
			if m.Name == name {
				decl = m
			}
		}
	}
	if decl.Name == "" {
		panic("benchmark: metric " + name + " is recorded but not declared")
	}
	s := summarize(decl.Unit, samples)
	if decl.Fastest && s.N > 0 {
		if s.Value = s.Min; decl.Better == "higher" {
			s.Value = s.Max
		}
	}
	r.Metrics[name] = s
}

func (r *result) caveat(why string) {
	r.Evidential = false
	r.Caveats = append(r.Caveats, why)
}

// failFrac is the eighth end-to-end metric of the issue. It is reported
// by the suite but not declared in BENCHMARK.json, whose contract carries
// it as the attempted and failed counts instead (and rules out a metric
// that reads 0 on every healthy run).
func (r *result) failFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// driverLine renders the one-line JSON object the benchmark contract asks
// for, with exactly the declared metrics.
func driverLine(r *result, decls []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range decls {
		s, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = value{s.Value, d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// report is a whole suite: every workload's result from one command.
type report struct {
	Results []*result `json:"results"`
}

func (rep *report) find(workload string) *result {
	for _, r := range rep.Results {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes every metric of every workload by name with unit, headline
// value, median, quartiles, extremes and sample count.
func (rep *report) print(w io.Writer, decls []metric) {
	if len(rep.Results) > 0 {
		e := rep.Results[0].Env
		fmt.Fprintf(w, "env: nproc=%d gomaxprocs=%d %s %q spill=%s(%s) commit=%s\n",
			e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.SpillDir, e.SpillFS, e.Commit)
		fmt.Fprint(w, "memory latency as each workload started, ns/load:")
		for _, r := range rep.Results {
			fmt.Fprintf(w, " %s=%.1f", r.Workload, r.Env.MemLatencyNS)
		}
		fmt.Fprintln(w)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tvalue\tmedian\tq1\tq3\tmin\tmax\tn")
	for _, r := range rep.Results {
		for _, d := range decls {
			if s, ok := r.Metrics[d.Name]; ok {
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\t%d\n",
					r.Workload, d.Name, s.Unit, s.Value, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
			}
		}
		if !r.Traced {
			fmt.Fprintf(tw, "%s\tfail_frac\tratio\t%.6g\t\t\t\t\t\t%d\n", r.Workload, r.failFrac(), r.Attempted)
		}
	}
	tw.Flush()
	for _, r := range rep.Results {
		if !r.Evidential {
			fmt.Fprintf(w, "note: %s is not evidence: %s\n", r.Workload, strings.Join(r.Caveats, "; "))
		}
	}
}

// verdict compares one metric of a baseline a and a candidate b.
type verdict struct {
	Workload, Metric string
	A, B             summary
	// Worse is how much worse b's value is than a's, as a share of a's
	// (negative when b is better).
	Worse   float64
	Bound   float64
	Verdict string // better, worse, within-bound, unresolved
	Gated   bool
}

func compare(m metric, a, b summary) verdict {
	v := verdict{Metric: m.Name, A: a, B: b, Bound: m.Bound, Gated: true}
	diff := b.Value - a.Value
	if m.Better == "higher" {
		diff = -diff
	}
	if a.Value != 0 {
		v.Worse = diff / math.Abs(a.Value)
	}
	// separated: every sample of one side lies beyond every sample of the
	// other, which settles the direction whatever the spread.
	separated := a.Max < b.Min || b.Max < a.Min
	switch {
	case math.Abs(diff) <= m.Floor:
		v.Verdict = "within-bound"
	case !separated && math.Max(a.spread(), b.spread()) > m.Bound:
		v.Verdict = "unresolved"
	case math.Abs(v.Worse) <= m.Bound:
		v.Verdict = "within-bound"
	case v.Worse > 0:
		v.Verdict = "worse"
	default:
		v.Verdict = "better"
	}
	return v
}

// diffReports compares two suites row by row.
func diffReports(a, b *report) []verdict {
	var out []verdict
	for _, rb := range b.Results {
		ra := a.find(rb.Workload)
		if ra == nil {
			continue
		}
		for _, m := range endToEndMetrics {
			sa, oka := ra.Metrics[m.Name]
			sb, okb := rb.Metrics[m.Name]
			if !oka || !okb {
				continue
			}
			v := compare(m, sa, sb)
			v.Workload = rb.Workload
			v.Gated = ra.Evidential && rb.Evidential
			out = append(out, v)
		}
	}
	return out
}

// printVerdicts writes one row per workload and metric. Every ratio names
// its base: the change is a share of A's value.
func printVerdicts(w io.Writer, vs []verdict) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA value [q1, q3]\tB value [q1, q3]\tB worse than A by (share of A)\tbound\tverdict")
	for _, v := range vs {
		gate := ""
		if !v.Gated {
			gate = " (not gated)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%+.2f%% of %.6g\t%.0f%%\t%s%s\n",
			v.Workload, v.Metric, v.A.Unit, v.A.Value, v.A.Q1, v.A.Q3, v.B.Value, v.B.Q1, v.B.Q3,
			100*v.Worse, v.A.Value, 100*v.Bound, v.Verdict, gate)
	}
	tw.Flush()
}
