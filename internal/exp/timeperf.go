package exp

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/extsort"
	"repro/internal/gen"
	"repro/internal/iosim"
	"repro/internal/merge"
	"repro/internal/policy"
	"repro/internal/record"
	"repro/internal/runio"
	"repro/internal/vfs"
)

// Chapter 6 time-performance experiments. The thesis measures wall-clock
// minutes on a SATA drive opened with direct I/O; here every sort runs
// against the simulated disk of internal/iosim and the reported times are
// the simulated I/O clock, which preserves the comparative shapes (see
// DESIGN.md §2).

// TimePoint is one x position of a Chapter 6 figure: run-generation and
// total times for both algorithms.
type TimePoint struct {
	X       float64       // memory (records), input (records) or section count
	RSRun   time.Duration // RS run generation, simulated
	RSTotal time.Duration // RS run generation and merge, simulated
	TWRun   time.Duration // 2WRS run generation, simulated
	TWTotal time.Duration // 2WRS run generation and merge, simulated
}

// Speedup returns total RS time over total 2WRS time.
func (p TimePoint) Speedup() float64 {
	if p.TWTotal == 0 {
		return 0
	}
	return float64(p.RSTotal) / float64(p.TWTotal)
}

// timedSort sorts a generated dataset with the given run generator on a
// fresh simulated disk and returns (run generation time, total time): the
// disk's clock after each phase.
func timedSort(kind gen.Kind, n, memory, sections int, pol policy.Kind) (runT, totalT time.Duration, err error) {
	cfg := extsort.Recommended(memory)
	cfg.Policy = pol
	cfg.Disk = iosim.NewDisk(iosim.Defaults2010())
	src := gen.New(gen.Config{Kind: kind, N: n, Seed: 1, Noise: 1000, Sections: sections})
	rset, err := extsort.GenerateRuns[record.Record](src, vfs.NewMemFS(), cfg, extsort.RecordOps())
	if err != nil {
		return 0, 0, err
	}
	runT = cfg.Disk.Elapsed()
	if _, err := rset.Merge(discardWriter{}); err != nil {
		return 0, 0, err
	}
	return runT, cfg.Disk.Elapsed(), nil
}

// discardWriter consumes the sorted output; the destination write cost is
// excluded just as the thesis excludes the final output write from its
// comparison (both algorithms pay it identically).
type discardWriter struct{}

func (discardWriter) Write(record.Record) error { return nil }

// sweepPoint is one x position of a sweep: the dataset size, the memory and
// the alternating section count to sort with.
type sweepPoint struct {
	x                   float64
	n, memory, sections int
}

// timeSweep runs both algorithms over a sweep. Every sort has its own
// simulated disk and shares nothing with the others, so they run side by
// side.
func timeSweep(kind gen.Kind, points []sweepPoint) ([]TimePoint, error) {
	out := make([]TimePoint, len(points))
	for i, pt := range points {
		out[i].X = pt.x
	}
	err := parallel(2*len(points), func(i int) (err error) {
		pt, res := points[i/2], &out[i/2]
		if i%2 == 0 {
			res.RSRun, res.RSTotal, err = timedSort(kind, pt.n, pt.memory, pt.sections, policy.RS)
		} else {
			res.TWRun, res.TWTotal, err = timedSort(kind, pt.n, pt.memory, pt.sections, policy.TwoWayRS)
		}
		return err
	})
	return out, err
}

// memorySweepPoints builds the Fig 6.2/6.4 sweep: input fixed, memory from
// base/10 to base*10 geometrically (the thesis sweeps 1k..1M for 1 GB).
func memorySweepPoints(p Params) []sweepPoint {
	var pts []sweepPoint
	for _, m := range []int{p.TimeMemory / 10, p.TimeMemory / 3, p.TimeMemory, p.TimeMemory * 3, p.TimeMemory * 10} {
		if m < 10 {
			continue
		}
		pts = append(pts, sweepPoint{float64(m), p.TimeInput, m, 50})
	}
	return pts
}

// inputSweepPoints builds the Fig 6.3/6.5/6.7 sweep: memory fixed, input
// from 10% to 100% of TimeInput (the thesis sweeps 100 MB..1 GB).
func inputSweepPoints(p Params) []sweepPoint {
	var pts []sweepPoint
	for _, frac := range []float64{0.1, 0.25, 0.5, 1.0} {
		n := int(float64(p.TimeInput) * frac)
		pts = append(pts, sweepPoint{float64(n), n, p.TimeMemory, 50})
	}
	return pts
}

// Fig62 reproduces "random input, time vs memory".
func Fig62(p Params) ([]TimePoint, error) { return timeSweep(gen.Random, memorySweepPoints(p)) }

// Fig63 reproduces "random input, time vs input size".
func Fig63(p Params) ([]TimePoint, error) { return timeSweep(gen.Random, inputSweepPoints(p)) }

// Fig64 reproduces "mixed input, time vs memory" (2WRS ≈ 3× faster).
func Fig64(p Params) ([]TimePoint, error) { return timeSweep(gen.MixedBalanced, memorySweepPoints(p)) }

// Fig65 reproduces "mixed input, time vs input size".
func Fig65(p Params) ([]TimePoint, error) { return timeSweep(gen.MixedBalanced, inputSweepPoints(p)) }

// Fig67 reproduces "reverse sorted input, time vs input size" (2WRS ≈ 2.5×).
func Fig67(p Params) ([]TimePoint, error) { return timeSweep(gen.ReverseSorted, inputSweepPoints(p)) }

// Fig66 reproduces "alternating input, time vs number of sorted sections":
// large speedups for few sections, converging as sections grow.
func Fig66(p Params) ([]TimePoint, error) {
	var pts []sweepPoint
	for _, s := range []int{2, 10, 25, 50, 100, 200, 500} {
		pts = append(pts, sweepPoint{float64(s), p.TimeInput, p.TimeMemory, s})
	}
	return timeSweep(gen.Alternating, pts)
}

// RenderTimePoints formats a Chapter 6 series.
func RenderTimePoints(xLabel string, pts []TimePoint) string {
	headers := []string{xLabel, "RS run", "RS total", "2WRS run", "2WRS total", "speedup"}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", p.X),
			p.RSRun.Round(time.Millisecond).String(),
			p.RSTotal.Round(time.Millisecond).String(),
			p.TWRun.Round(time.Millisecond).String(),
			p.TWTotal.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2f", p.Speedup()),
		})
	}
	return RenderTable(headers, rows)
}

// FanInPoint is one x position of Fig 6.1.
type FanInPoint struct {
	FanIn   int           // the merge fan-in
	SimTime time.Duration // the simulated time of the merge alone
}

// Fig61FanIn reproduces the merge-time-vs-fan-in U-shape: a set of
// pre-generated sorted runs is merged to completion at each fan-in on a
// fresh simulated disk. Small fan-ins pay extra passes; large fan-ins pay a
// seek for nearly every buffer refill.
func Fig61FanIn(p Params) ([]FanInPoint, error) {
	fanIns := []int{2, 3, 4, 6, 8, 10, 12, 14, 16, 18}
	out := make([]FanInPoint, len(fanIns))
	err := parallel(len(fanIns), func(i int) error {
		disk := iosim.NewDisk(iosim.Defaults2010())
		fs := iosim.NewFS(vfs.NewMemFS(), disk)
		em := runio.RecordEmitter(fs, "fan")
		runs, err := makeSortedRuns(em, p.FanInRuns, p.FanInRunRecords)
		if err != nil {
			return err
		}
		disk.Reset() // charge only the merge, not the setup
		_, err = merge.Merge(em, runs, discardWriter{}, merge.Config{
			FanIn:       fanIns[i],
			MemoryBytes: p.FanInMergeMemory,
		})
		out[i] = FanInPoint{FanIn: fanIns[i], SimTime: disk.Elapsed()}
		return err
	})
	return out, err
}

// BestFanIn returns the fan-in with the smallest simulated merge time.
func BestFanIn(pts []FanInPoint) int {
	best := 0
	for i, p := range pts {
		if p.SimTime < pts[best].SimTime {
			best = i
		}
	}
	return pts[best].FanIn
}

// makeSortedRuns writes n runs of `length` uniformly distributed sorted
// records each.
func makeSortedRuns(em *runio.Emitter[record.Record], n, length int) ([]runio.Run, error) {
	var runs []runio.Run
	for i := 0; i < n; i++ {
		recs := gen.Generate(gen.Config{Kind: gen.Random, N: length, Seed: int64(i + 1)})
		// Sort in memory: these runs model the output of a previous run
		// generation phase.
		slices.SortFunc(recs, func(a, b record.Record) int { return cmp.Compare(a.Key, b.Key) })
		w, err := em.Stream("run", false)
		if err != nil {
			return nil, err
		}
		if err := w.WriteBatch(recs); err != nil {
			return nil, err
		}
		if err := w.Close(); err != nil {
			return nil, err
		}
		runs = append(runs, runio.SingleRun(w.Segment()))
	}
	return runs, nil
}

// RenderFanIn formats the Fig 6.1 series.
func RenderFanIn(pts []FanInPoint) string {
	headers := []string{"fan-in", "merge time (sim)"}
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.FanIn),
			p.SimTime.Round(time.Millisecond).String(),
		})
	}
	return RenderTable(headers, rows)
}
