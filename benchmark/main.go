// Command benchmark is the repository's benchmark: six external-sort
// workloads, each measured end to end through the public Sorter API and,
// in a separate traced pass, layer by layer. See README.md.
//
//	benchmark                          run every workload end to end
//	benchmark trace                    run every workload's traced pass
//	benchmark selfcheck                run the suite twice and compare (A/A)
//	benchmark diff A.json B.json       compare two saved suites
//	benchmark -workload W -seed N -seconds S -trace 0|1
//	                                   one run of one workload; the last
//	                                   line of output is one JSON object
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errFailed makes the command exit non-zero after it has reported.
var errFailed = errors.New("one or more sorts failed or metrics disagreed")

func run(args []string) error {
	cmd := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		p         params
		workload  = fs.String("workload", "", "run only this workload and print one JSON result line")
		trace     = fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		out       = fs.String("out", "", "also write the full result as JSON to this file")
		footprint = fs.Bool("footprint", false, "internal: run one streamed operation for the peak-RSS measurement")
		spans     = fs.String("spans", "", "traced pass: write the span JSONL here (default <root>/../spans-<workload>.jsonl)")
		only      = fs.String("only", "", "suite: comma-separated workloads to run (default all)")
	)
	fs.Int64Var(&p.seed, "seed", 42, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&p.seconds, "seconds", 38, "how long each workload measures (BENCHMARK.json's run_seconds by default)")
	fs.IntVar(&p.scale, "scale", 1, "divide every N and M by this; results are then not evidence")
	fs.IntVar(&p.n, "n", 0, "replace every dataset's element count; results are then not evidence")
	fs.StringVar(&p.root, "root", defaultRoot(), "directory for spill files")
	fs.StringVar(&p.cpuProfile, "cpuprofile", "", "write a CPU profile of the timed sorts (with -workload)")
	fs.StringVar(&p.memProfile, "memprofile", "", "write a heap profile after the timed sorts (with -workload)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if p.scale < 1 {
		return fmt.Errorf("-scale must be at least 1, got %d", p.scale)
	}

	switch {
	case cmd == "diff":
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: benchmark diff A.json B.json")
		}
		return diffCommand(fs.Arg(0), fs.Arg(1))
	case cmd == "selfcheck":
		return selfcheck(p, *only)
	case cmd == "trace":
		*trace = 1
	case cmd != "":
		return fmt.Errorf("unknown command %q (want trace, selfcheck or diff)", cmd)
	}
	if *workload == "" {
		rep, err := suite(p, *trace == 1, *only)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := writeJSON(*out, rep); err != nil {
				return err
			}
		}
		return reportSuite(rep, *trace == 1)
	}

	s, ok := findSpec(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	w := s.build()
	if *footprint {
		return w.footprint(p)
	}
	var (
		res   *result
		err   error
		decls = endToEndMetrics
	)
	if *trace == 1 {
		decls = perLayerMetrics
		if *spans == "" {
			*spans = filepath.Join(filepath.Dir(p.root), "spans-"+*workload+".jsonl")
		}
		res, err = w.trace(p, *spans)
	} else {
		res, err = w.endToEnd(p)
	}
	if err != nil {
		return err
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			return err
		}
	}
	line, err := driverLine(res, decls)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if res.Failed > 0 {
		return errFailed
	}
	return nil
}

// suite runs each workload in its own re-executed child process, one at a
// time, so garbage-collector state and peak RSS never leak from one
// workload into the next.
func suite(p params, traced bool, only string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(p.root, 0o755); err != nil {
		return nil, err
	}
	rep := &report{}
	for _, s := range specs {
		if only != "" && !slices.Contains(strings.Split(only, ","), s.name) {
			continue
		}
		tmp, err := os.CreateTemp(p.root, "result-*.json")
		if err != nil {
			return nil, err
		}
		tmp.Close()
		defer os.Remove(tmp.Name())
		args := append(p.childArgs(s.name), "-out", tmp.Name())
		if traced {
			args = append(args, "-trace", "1")
		}
		fmt.Fprintf(os.Stderr, "benchmark: running %s\n", s.name)
		child := exec.Command(exe, args...)
		child.Stderr = os.Stderr // stdout, the child's JSON line, is dropped: -out has it all
		runErr := child.Run()
		b, err := os.ReadFile(tmp.Name())
		if err != nil || len(b) == 0 {
			return nil, fmt.Errorf("workload %s produced no result: %v", s.name, runErr)
		}
		var res result
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("workload %s: %w", s.name, err)
		}
		rep.Results = append(rep.Results, &res)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("no workload matches %q", only)
	}
	return rep, nil
}

func reportSuite(rep *report, traced bool) error {
	decls := slices.Concat(endToEndMetrics, contextMetrics)
	if traced {
		decls = perLayerMetrics
	}
	rep.print(os.Stdout, decls)
	for _, r := range rep.Results {
		if r.Failed > 0 {
			return errFailed
		}
	}
	return nil
}

func diffCommand(pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("A = %s, B = %s\n", pathA, pathB)
	printVerdicts(os.Stdout, diffReports(a, b))
	return nil
}

// selfcheck is the A/A test: the same binary measured twice must agree
// with itself within every gated metric's bound, or the bounds — and any
// claim later made against them — mean nothing.
func selfcheck(p params, only string) error {
	a, err := suite(p, false, only)
	if err != nil {
		return err
	}
	b, err := suite(p, false, only)
	if err != nil {
		return err
	}
	vs := diffReports(a, b)
	fmt.Println("A = first run, B = second run of the same binary")
	printVerdicts(os.Stdout, vs)
	bad := 0
	for _, v := range vs {
		if v.Gated && v.Verdict != "within-bound" && math.Abs(v.Worse) > v.Bound {
			bad++
			fmt.Printf("DISAGREE: %s %s differs by %.2f%% of A, bound %.0f%%\n", v.Workload, v.Metric, 100*v.Worse, 100*v.Bound)
		}
	}
	for _, rep := range []*report{a, b} {
		for _, r := range rep.Results {
			if r.Failed > 0 {
				bad++
				fmt.Printf("FAILED: %s had %d of %d sorts fail\n", r.Workload, r.Failed, r.Attempted)
			}
		}
	}
	if bad > 0 {
		return errFailed
	}
	fmt.Println("selfcheck passed: every gated metric agrees with itself within its bound")
	return nil
}
