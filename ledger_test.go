package repro

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/manifest"
	"repro/internal/vfs"
	"repro/internal/vfs/faultfs"
)

// TestMetricsEqualTheLedger runs every entry point that sorts, each on a
// fresh registry, and holds the final exposition to the ledger the call
// returned: Stats, and what it does not hold — the records the call read
// from its input (a resume replays a prefix it does not count), the records
// its merge stream delivered (an operator that abandons the stream early
// counts what it read, not Stats.Records) and the phases the sort's parts
// published under the names Stats.Phases gives them (a committed resume's
// is "resume").
func TestMetricsEqualTheLedger(t *testing.T) {
	const n, memory, k = 20_000, 256, 1_000
	recs := shuffledRecords(n, 7)
	ctx := context.Background()
	src := func() Source[Record] { return &dyingSource{recs: recs, dieAt: n + 1} }
	build := func(t *testing.T, fs vfs.FS, opts ...Option) *Sorter[Record] {
		s, err := New(func(a, b Record) bool { return a.Key < b.Key }, append([]Option{WithMemoryRecords(memory), WithFanIn(4)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		s.fs = fs
		return s
	}
	type ledger struct {
		st      Stats
		in, out int64
		phases  map[string]float64 // published phase → how many parts published it
	}
	one := map[string]float64{"generate": 1, "merge": 1}
	rows := []struct {
		name string
		run  func(t *testing.T, reg *Metrics) (ledger, error)
	}{
		{"Sort", func(t *testing.T, reg *Metrics) (ledger, error) {
			var out sliceSink[Record]
			st, err := build(t, vfs.NewMemFS(), WithMetrics(reg)).Sort(ctx, src(), &out)
			return ledger{st, n, n, one}, err
		}},
		{"Resume/partial", func(t *testing.T, reg *Metrics) (ledger, error) {
			fs := vfs.NewMemFS()
			var out sliceSink[Record]
			if _, err := build(t, fs, WithManifest()).Sort(ctx, &dyingSource{recs: recs, dieAt: 3 * n / 4}, &out); !errors.Is(err, errSourceDied) {
				t.Fatalf("interrupted Sort: %v, want errSourceDied", err)
			}
			names, _ := fs.Names()
			var replayed int64
			for _, name := range names {
				if strings.HasSuffix(name, manifest.Suffix) {
					ms, err := manifest.Load(fs, name)
					if err != nil {
						t.Fatal(err)
					}
					if ms.Committed || len(ms.Runs) == 0 {
						t.Fatalf("the interrupted sort's manifest: committed %v, %d runs", ms.Committed, len(ms.Runs))
					}
					replayed = ms.Runs[len(ms.Runs)-1].InputPos
				}
			}
			out.vals = nil
			st, err := build(t, fs, WithManifest(), WithMetrics(reg)).Resume(ctx, src(), &out)
			if err == nil && st.RunsRecovered == 0 {
				t.Fatal("the resume recovered no run")
			}
			return ledger{st, st.Records - replayed, n, one}, err
		}},
		{"Resume/committed", func(t *testing.T, reg *Metrics) (ledger, error) {
			// The last write of a sort is its last intermediate merge's: failing
			// it leaves a committed manifest.
			probe := faultfs.New(vfs.NewMemFS(), faultfs.Options{})
			var out sliceSink[Record]
			if _, err := build(t, probe, WithManifest()).Sort(ctx, src(), &out); err != nil {
				t.Fatal(err)
			}
			mem := vfs.NewMemFS()
			broken := faultfs.New(mem, faultfs.Options{})
			broken.Fail(faultfs.Write, probe.Calls(faultfs.Write))
			if _, err := build(t, broken, WithManifest()).Sort(ctx, src(), &out); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("err = %v, want the injected write fault", err)
			}
			out.vals = nil
			st, err := build(t, mem, WithManifest(), WithMetrics(reg)).Resume(ctx, src(), &out)
			if err == nil && st.RunsRecovered != st.Runs {
				t.Fatalf("the resume recovered %d of %d runs", st.RunsRecovered, st.Runs)
			}
			return ledger{st, 0, n, map[string]float64{"resume": 1, "merge": 1}}, err
		}},
		{"Distinct", func(t *testing.T, reg *Metrics) (ledger, error) {
			var out sliceSink[Record]
			st, err := build(t, vfs.NewMemFS(), WithMetrics(reg)).Distinct(ctx, src(), &out)
			return ledger{st.Sort, n, n, one}, err
		}},
		{"TopK/spill", func(t *testing.T, reg *Metrics) (ledger, error) {
			var out sliceSink[Record]
			st, err := build(t, vfs.NewMemFS(), WithMetrics(reg)).TopK(ctx, src(), k, &out)
			if err == nil && !st.Sorted {
				t.Fatal("TopK answered in memory")
			}
			return ledger{st.Sort, n, k, one}, err
		}},
		{"Select/spill", func(t *testing.T, reg *Metrics) (ledger, error) {
			_, st, err := build(t, vfs.NewMemFS(), WithMetrics(reg)).Select(ctx, src(), n/3)
			if err == nil && !st.Sorted {
				t.Fatal("Select answered in memory")
			}
			return ledger{st.Sort, n, n / 3, one}, err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			reg := NewMetrics()
			l, err := row.run(t, reg)
			if err != nil {
				t.Fatal(err)
			}
			st := l.st
			want := map[string]float64{
				"extsort_records_in_total":            float64(l.in),
				"extsort_records_out_total":           float64(l.out),
				"extsort_runs_total":                  float64(st.Runs),
				"extsort_run_length_records_count":    float64(st.Runs),
				"extsort_run_length_records_sum":      float64(st.Records),
				"extsort_runs_recovered_total":        float64(st.RunsRecovered),
				"extsort_merge_ops_total":             float64(st.MergeOps),
				"extsort_merge_fan_in_count":          float64(st.MergeOps),
				"extsort_spilled_raw_bytes_total":     float64(st.IO.RawBytesWritten),
				"extsort_read_raw_bytes_total":        float64(st.IO.RawBytesRead),
				"extsort_spill_blocks_written_total":  float64(st.IO.BlocksWritten),
				"extsort_spill_blocks_read_total":     float64(st.IO.BlocksRead),
				"extsort_spill_verify_failures_total": float64(st.IO.VerifyFailures),
			}
			if st.MergeOps > 0 {
				// Every run but the final merge's output is read by one operation.
				want["extsort_merge_fan_in_sum"] = float64(st.MergeInputs + st.MergeOps - 1)
			}
			for phase, count := range l.phases {
				want[fmt.Sprintf("extsort_phase_seconds_count{phase=%q}", phase)] = count
			}
			var prom strings.Builder
			if err := reg.WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			got := make(map[string]float64)
			for _, line := range strings.Split(prom.String(), "\n") {
				if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
					var v float64
					if _, err := fmt.Sscan(line[i+1:], &v); err != nil {
						t.Fatalf("malformed exposition line %q", line)
					}
					got[line[:i]] = v
				}
			}
			for name, v := range want {
				if g, ok := got[name]; !ok || g != v {
					t.Errorf("%s = %v (present %v), the ledger says %v", name, g, ok, v)
				}
			}
			for name := range got {
				if _, ok := want[name]; strings.HasPrefix(name, "extsort_phase_seconds_count") && !ok {
					t.Errorf("%s is published; the ledger's phases are %v", name, l.phases)
				}
			}
		})
	}
}
