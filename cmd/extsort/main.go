// Command extsort sorts and queries binary record files externally with a
// bounded memory budget. -policy names the run generator: 2wrs, rs,
// alternating (or alt), quick (or lss: the paper's Load-Sort-Store) or
// "auto" (the default), which probes a memory-sized prefix of the input and
// runs over all of it the generator its cost table prices cheapest for the
// input's shape and length (the file's size); the "generator:" line names
// it.
//
// Subcommands:
//
//	extsort sort      -in input.rec -out sorted.rec   # full external sort (default)
//	extsort sort      -policy auto -in input.rec -out sorted.rec
//	extsort distinct  -in input.rec -out distinct.rec # one record per key, ascending
//	extsort topk      -k 100 -in input.rec -out top.rec
//	extsort bottomk   -k 100 -in input.rec -out bottom.rec
//	extsort select    -k 5000 -in input.rec           # k-th smallest record
//	extsort select    -k 5000 -approx -eps 0.01 -in input.rec
//	extsort quantiles -q 0.5,0.9,0.99 -in input.rec
//	extsort join      -left a.rec -right b.rec -out joined.rec
//
// Every spilled block is checked as it is read back, so a sort fails
// loudly — never silently wrong — on corrupted spill data.
//
// -manifest makes the sort durable: every completed run is recorded in a
// CRC-guarded manifest in -tmp, and a killed command can be finished with
// -resume (same flags, same -tmp) instead of restarted — the resumed
// output is byte-identical to the uninterrupted one:
//
//	extsort sort -policy 2wrs -manifest -tmp ./spill -in in.rec -out out.rec
//	# ... kill -9 mid-sort ...
//	extsort sort -policy 2wrs -resume   -tmp ./spill -in in.rec -out out.rec
//
// Every -policy can be durable, auto included: a resumed auto sort makes
// the decisions of the uninterrupted one. A resume under changed flags
// fails with a configuration-mismatch error rather than mixing
// incompatible state.
//
// Invoking extsort with flags directly (no subcommand) behaves like
// "extsort sort", preserving the historical CLI. Every subcommand prints
// the phase statistics the paper reports; the operator subcommands also
// print what they consumed and emitted.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/record"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("extsort: ")
	args := os.Args[1:]
	cmd := "sort"
	if len(args) > 0 && len(args[0]) > 0 && args[0][0] != '-' {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "sort":
		runSort(args)
	case "distinct", "topk", "bottomk":
		runUnaryOp(cmd, args)
	case "select":
		runSelect(args)
	case "quantiles":
		runQuantiles(args)
	case "join":
		runJoin(args)
	default:
		log.Fatalf("unknown subcommand %q (want sort, distinct, topk, bottomk, select, quantiles or join)", cmd)
	}
}

// sortFlags declares the flags shared by every subcommand that sorts.
type sortFlags struct {
	policy   *string
	memory   *int
	fanIn    *int
	tempDir  *string
	setup    *string
	frac     *float64
	inH      *string
	outH     *string
	seed     *int64
	manifest *bool
	resume   *bool

	// Observability flags, shared by every subcommand.
	traceOut    *string
	metricsAddr *string
	metricsOut  *string
	progress    *bool
}

func newSortFlags(fs *flag.FlagSet) *sortFlags {
	// The defaults are the library's, read from where it writes them down.
	def := repro.DefaultConfig(1 << 20)
	return &sortFlags{
		policy: fs.String("policy", def.Policy, "run generation policy: "+strings.Join(repro.Policies(), ", ")+
			" (alt and lss are accepted for alternating and quick); 'auto' probes the first memory-load of the input "+
			"and runs, over all of it, the one generator a cost table prices cheapest for its shape and length"),
		memory:  fs.Int("memory", def.MemoryRecords, "memory budget in records"),
		fanIn:   fs.Int("fanin", def.FanIn, "merge fan-in; 0 merges in one pass when the memory budget gives every piece of every run a 4 KiB page, else as wide as it feeds at a 16 KiB block per input, and at least 10"),
		tempDir: fs.String("tmp", "", "directory for temporary runs (default: system temp)"),
		setup:   fs.String("buffers", def.Setup.String(), "2WRS buffer setup: input, both, victim"),
		frac:    fs.Float64("buffrac", def.BufferFraction, "fraction of memory for 2WRS buffers"),
		inH:     fs.String("inheur", def.Input.String(), "2WRS input heuristic"),
		outH:    fs.String("outheur", def.Output.String(), "2WRS output heuristic"),
		seed:    fs.Int64("seed", 1, "seed for randomised heuristics"),
		manifest: fs.Bool("manifest", false, "record every completed run in a durable manifest in -tmp, so a killed "+
			"command can be finished with -resume instead of starting over (works under every -policy)"),
		resume: fs.Bool("resume", false, "resume the durable sort a previous -manifest run left in -tmp: completed runs "+
			"are validated and reused, the input re-read from the start; implies -manifest and requires -tmp"),
		traceOut: fs.String("trace-out", "", "write a trace of the run here: Chrome trace_event JSON "+
			"(open in chrome://tracing or Perfetto), or span JSONL when the path ends in .jsonl"),
		metricsAddr: fs.String("metrics-addr", "", "serve the Prometheus metrics endpoint on this "+
			"address (e.g. :9090) at /metrics while the command runs; series advance at phase ends"),
		metricsOut: fs.String("metrics-out", "", "write the final Prometheus text exposition here ('-' for stdout)"),
		progress:   fs.Bool("progress", false, "report live progress (phase, rate, ETA) to stderr every second"),
	}
}

// observe wires the observability flags into cfg: a tracer when -trace-out
// is set, a metrics registry when -metrics-addr or -metrics-out is, a
// stderr progress reporter for -progress, and the live metrics endpoint.
// The returned finish func writes the trace and metrics files and stops
// the endpoint; call it after the subcommand's work is done.
func (f *sortFlags) observe(cfg *repro.Config) (func(), error) {
	var tr *repro.Tracer
	var reg *repro.Metrics
	if *f.traceOut != "" {
		tr = repro.NewTracer()
		cfg.Trace = tr
	}
	if *f.metricsAddr != "" || *f.metricsOut != "" {
		reg = repro.NewMetrics()
		cfg.Metrics = reg
	}
	if *f.progress {
		cfg.Progress = &repro.ProgressConfig{W: os.Stderr}
	}
	var srv *http.Server
	if *f.metricsAddr != "" {
		ln, err := net.Listen("tcp", *f.metricsAddr)
		if err != nil {
			return nil, err
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		srv = &http.Server{Handler: mux}
		go srv.Serve(ln)
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", ln.Addr())
	}
	finish := func() {
		if tr != nil {
			out, err := os.Create(*f.traceOut)
			if err != nil {
				log.Fatal(err)
			}
			if strings.HasSuffix(*f.traceOut, ".jsonl") {
				err = tr.WriteSpansJSONL(out)
			} else {
				err = tr.WriteChromeTrace(out)
			}
			if cerr := out.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				log.Fatal(err)
			}
		}
		if *f.metricsOut != "" {
			w := os.Stdout
			if *f.metricsOut != "-" {
				out, err := os.Create(*f.metricsOut)
				if err != nil {
					log.Fatal(err)
				}
				defer out.Close()
				w = out
			}
			if err := reg.WritePrometheus(w); err != nil {
				log.Fatal(err)
			}
		}
		if srv != nil {
			srv.Close()
		}
	}
	return finish, nil
}

// config resolves the flag values into a repro.Config, allocating (and
// returning a cleanup for) a temp dir when none was given.
func (f *sortFlags) config() (repro.Config, func(), error) {
	bufSetup, err := core.ParseBufferSetup(*f.setup)
	if err != nil {
		return repro.Config{}, nil, err
	}
	inHeur, err := core.ParseInputHeuristic(*f.inH)
	if err != nil {
		return repro.Config{}, nil, err
	}
	outHeur, err := core.ParseOutputHeuristic(*f.outH)
	if err != nil {
		return repro.Config{}, nil, err
	}
	if *f.resume && *f.tempDir == "" {
		return repro.Config{}, nil, fmt.Errorf("-resume requires -tmp: without it each run sorts in a fresh " +
			"temporary directory, so there is no durable state to pick up")
	}
	cfg := repro.Config{
		Policy:         *f.policy,
		MemoryRecords:  *f.memory,
		FanIn:          *f.fanIn,
		Setup:          bufSetup,
		BufferFraction: *f.frac,
		Input:          inHeur,
		Output:         outHeur,
		Seed:           *f.seed,
		Manifest:       *f.manifest || *f.resume,
		Resume:         *f.resume,
	}
	cleanup := func() {}
	cfg.TempDir = *f.tempDir
	if cfg.TempDir == "" {
		d, err := os.MkdirTemp("", "extsort")
		if err != nil {
			return repro.Config{}, nil, err
		}
		cfg.TempDir = d
		cleanup = func() { os.RemoveAll(d) }
	}
	return cfg, cleanup, nil
}

// parse parses a subcommand's flags and exits with its usage when one of
// the required path flags was left empty.
func parse(fs *flag.FlagSet, args []string, required ...*string) {
	fs.Parse(args)
	for _, path := range required {
		if *path == "" {
			fs.Usage()
			os.Exit(2)
		}
	}
}

// job is what a subcommand works with once its flags are parsed: the
// record sorter (classic key order, codec and key projection inferred),
// its opened inputs and, when it writes a record file, its output.
type job struct {
	s   *repro.Sorter[repro.Record]
	in  []*inFile
	out *outFile
}

// start is the prologue every subcommand shares: resolve the flags into a
// configuration, wire the observability flags into it, build the sorter,
// open the inputs and create the output (outPath "" for none). Any failure
// is fatal. The returned finish closes the inputs, writes the trace and
// metrics files, stops the metrics endpoint and removes a temp dir this
// command allocated; defer it.
func (f *sortFlags) start(outPath string, inPaths ...string) (*job, func()) {
	cfg, cleanup, err := f.config()
	if err != nil {
		log.Fatal(err)
	}
	finishObs, err := f.observe(&cfg)
	if err != nil {
		log.Fatal(err)
	}
	j := &job{}
	if j.s, err = repro.New(record.Less, repro.WithConfig(cfg)); err != nil {
		log.Fatal(err)
	}
	var closers []func()
	for _, path := range inPaths {
		src, closeIn, err := openIn(path)
		if err != nil {
			log.Fatal(err)
		}
		j.in = append(j.in, src)
		closers = append(closers, closeIn)
	}
	if outPath != "" {
		if j.out, err = createOut(outPath); err != nil {
			log.Fatal(err)
		}
	}
	return j, func() {
		for _, closeIn := range closers {
			closeIn()
		}
		finishObs()
		cleanup()
	}
}

// commit ends the subcommand's work: a failed operation is fatal (its
// output file is closed unflushed), a successful one has its output
// flushed and closed.
func (j *job) commit(err error) {
	if err != nil {
		if j.out != nil {
			j.out.f.Close()
		}
		fatalSortErr(err)
	}
	if j.out != nil {
		if err := j.out.close(); err != nil {
			log.Fatal(err)
		}
	}
}

// openIn opens a binary record file as a streaming source.
func openIn(path string) (*inFile, func(), error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	in := &inFile{record.NewByteReader(bufio.NewReaderSize(f, 1<<20)), int(fi.Size() / record.Size)}
	return in, func() { f.Close() }, nil
}

// inFile is a record file's reader that reports the records it has left,
// from the file's size: the input length the auto policy prices a sort by,
// as it does a library caller's sized source. The library reads it in
// batches.
type inFile struct {
	*record.ByteReader
	left int
}

func (i *inFile) ReadBatch(dst []record.Record) (int, error) {
	n, err := i.ByteReader.ReadBatch(dst)
	i.left -= n
	return n, err
}

func (i *inFile) Remaining() int { return i.left }

// outFile wraps a buffered record file destination.
type outFile struct {
	f *os.File
	w *bufio.Writer
	r *record.ByteWriter
}

func createOut(path string) (*outFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	return &outFile{f: f, w: w, r: record.NewByteWriter(w)}, nil
}

func (o *outFile) close() error {
	if err := o.w.Flush(); err != nil {
		o.f.Close()
		return err
	}
	return o.f.Close()
}

func printSortStats(memory int, stats repro.Stats) {
	fmt.Printf("policy:           %v\n", stats.Policy)
	fmt.Printf("generator:        %v\n", stats.Generator)
	fmt.Printf("records:          %d\n", stats.Records)
	fmt.Printf("runs:             %d\n", stats.Runs)
	if stats.Runs > 0 {
		fmt.Printf("avg run length:   %s\n", runLength(memory, stats))
	}
	if stats.OverlapRuns > 0 {
		fmt.Printf("overlapping runs: %d (merged as separate streams)\n", stats.OverlapRuns)
	}
	fmt.Printf("merge passes:     %d (%d merge ops over %d inputs)\n",
		stats.MergePasses, stats.MergeOps, stats.MergeInputs)
	printIOStats(stats)
}

// runLength describes the average run length against the memory budget and,
// when the budget ran in lanes, against one lane's memory.
func runLength(memory int, stats repro.Stats) string {
	s := fmt.Sprintf("%.1f records (%.2fx memory", stats.AvgRunLength, stats.AvgRunLength/float64(memory))
	if stats.Lanes > 1 {
		s += fmt.Sprintf(", %.2fx lane memory: %d lanes of %d", stats.RunLenOverLaneMemory(), stats.Lanes, stats.LaneMemory)
	}
	return s + ")"
}

// printIOStats reports the spill backend's byte accounting: what the sort
// actually moved to and from temporary storage.
func printIOStats(stats repro.Stats) {
	io := stats.IO
	if io.BlocksWritten == 0 {
		return
	}
	fmt.Printf("spill backend:    %s\n", stats.Storage)
	fmt.Printf("spilled:          %d bytes in %d blocks\n", io.RawBytesWritten, io.BlocksWritten)
	fmt.Printf("read back:        %d bytes in %d blocks\n", io.RawBytesRead, io.BlocksRead)
	if io.VerifyFailures > 0 {
		fmt.Printf("verify failures:  %d (spilled blocks failed checksum!)\n", io.VerifyFailures)
	}
}

// fatalSortErr exits with err, decorating the durable-sort mismatch case
// with actionable advice: the codec, layout or generation fingerprint in
// the manifest did not match this invocation.
func fatalSortErr(err error) {
	if errors.Is(err, repro.ErrManifestMismatch) {
		log.Fatalf("%v\n\nThe durable manifest in -tmp was written by a sort with a different configuration\n"+
			"(codec, spill layout, -memory, -policy or heuristics). Rerun with the original flags\n"+
			"to resume it, or delete the *.manifest file (and its spill files) to start over.", err)
	}
	log.Fatal(err)
}

func runSort(args []string) {
	fs := flag.NewFlagSet("sort", flag.ExitOnError)
	sf := newSortFlags(fs)
	inPath := fs.String("in", "", "input record file (required)")
	outPath := fs.String("out", "", "output record file (required)")
	parse(fs, args, inPath, outPath)
	j, finish := sf.start(*outPath, *inPath)
	defer finish()

	stats, err := j.s.Sort(context.Background(), j.in[0], j.out.r)
	j.commit(err)
	printSortStats(*sf.memory, stats)
	for _, ph := range stats.Phases {
		fmt.Printf("%-17s %v\n", ph.Name+":", ph.Wall.Round(1e6))
	}
	fmt.Printf("total:            %v\n", stats.Elapsed.Round(1e6))
}

// runUnaryOp drives distinct, topk and bottomk, which share the
// single-input, record-file-output shape.
func runUnaryOp(name string, args []string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	sf := newSortFlags(fs)
	inPath := fs.String("in", "", "input record file (required)")
	outPath := fs.String("out", "", "output record file (required)")
	var k *int
	switch name {
	case "topk":
		k = fs.Int("k", 100, "number of smallest records to keep")
	case "bottomk":
		k = fs.Int("k", 100, "number of largest records to keep")
	}
	parse(fs, args, inPath, outPath)
	j, finish := sf.start(*outPath, *inPath)
	defer finish()

	var st repro.OpStats
	var err error
	switch name {
	case "distinct":
		st, err = j.s.Distinct(context.Background(), j.in[0], j.out.r)
	case "topk":
		st, err = j.s.TopK(context.Background(), j.in[0], *k, j.out.r)
	case "bottomk":
		st, err = j.s.BottomK(context.Background(), j.in[0], *k, j.out.r)
	}
	j.commit(err)
	fmt.Printf("operator:         %s\n", name)
	fmt.Printf("consumed:         %d records\n", st.In)
	fmt.Printf("emitted:          %d records\n", st.Out)
	if st.Sorted {
		printSortStats(*sf.memory, st.Sort)
	} else {
		fmt.Printf("selection:        bounded heap, no external sort (0 runs spilled)\n")
	}
}

// runSelect finds one order statistic and prints it — there is no output
// file, because the answer is a single record. -approx switches to the
// soft-heap selection with a corruption budget of -eps.
func runSelect(args []string) {
	fs := flag.NewFlagSet("select", flag.ExitOnError)
	sf := newSortFlags(fs)
	inPath := fs.String("in", "", "input record file (required)")
	k := fs.Int("k", 1, "rank to select, 1-based (1 = minimum)")
	approx := fs.Bool("approx", false, "use the approximate soft-heap selection")
	eps := fs.Float64("eps", 0.01, "corruption budget for -approx: the returned rank is within [k, k+eps*n]")
	parse(fs, args, inPath)
	j, finish := sf.start("", *inPath)
	defer finish()

	var rec repro.Record
	var st repro.SelectStats
	var err error
	if *approx {
		rec, st, err = j.s.ApproxSelect(context.Background(), j.in[0], *k, *eps)
	} else {
		rec, st, err = j.s.Select(context.Background(), j.in[0], *k)
	}
	j.commit(err)
	fmt.Printf("operator:         select\n")
	fmt.Printf("rank:             %d of %d records\n", *k, st.In)
	fmt.Printf("selected:         key=%d aux=%d\n", rec.Key, rec.Aux)
	switch {
	case *approx:
		fmt.Printf("approximation:    eps=%g, rank within [%d, %d], %d items left corrupted\n",
			*eps, *k, int64(*k)+st.RankErrorBound, st.Corrupted)
		fmt.Printf("selection:        in-memory soft heap (0 runs spilled)\n")
	case st.Sorted:
		printSortStats(*sf.memory, st.Sort)
	default:
		fmt.Printf("selection:        in-memory dualheap (%d root exchanges, 0 runs spilled)\n", st.Swaps)
	}
}

// runQuantiles prints the record at each requested quantile: one
// multiselect pass in memory, or one forward walk of the merged order when
// the input spills.
func runQuantiles(args []string) {
	fs := flag.NewFlagSet("quantiles", flag.ExitOnError)
	sf := newSortFlags(fs)
	inPath := fs.String("in", "", "input record file (required)")
	qArg := fs.String("q", "0.5,0.9,0.99", "comma-separated quantiles in [0,1]")
	parse(fs, args, inPath)
	var qs []float64
	for _, part := range strings.Split(*qArg, ",") {
		q, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			log.Fatalf("bad quantile %q: %v", part, err)
		}
		qs = append(qs, q)
	}
	j, finish := sf.start("", *inPath)
	defer finish()

	recs, st, err := j.s.Quantiles(context.Background(), j.in[0], qs)
	j.commit(err)
	fmt.Printf("operator:         quantiles\n")
	fmt.Printf("consumed:         %d records\n", st.In)
	for i, q := range qs {
		fmt.Printf("p%-5s          key=%d aux=%d\n", strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.2f", q*100), "0"), "."), recs[i].Key, recs[i].Aux)
	}
	if st.Sorted {
		printSortStats(*sf.memory, st.Sort)
	} else {
		fmt.Printf("selection:        in-memory multiselect (%d root exchanges, 0 runs spilled)\n", st.Swaps)
	}
}

func runJoin(args []string) {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	sf := newSortFlags(fs)
	leftPath := fs.String("left", "", "left input record file (required)")
	rightPath := fs.String("right", "", "right input record file (required)")
	outPath := fs.String("out", "", "output record file (required); each matching pair "+
		"(l, r) on key emits {Key, l.Aux + r.Aux}")
	parse(fs, args, leftPath, rightPath, outPath)
	j, finish := sf.start(*outPath, *leftPath, *rightPath)
	defer finish()

	cmp := func(l, r repro.Record) int {
		switch {
		case l.Key < r.Key:
			return -1
		case l.Key > r.Key:
			return 1
		}
		return 0
	}
	join := func(l, r repro.Record) repro.Record {
		return repro.Record{Key: l.Key, Aux: l.Aux + r.Aux}
	}
	// Both sides sort under the one configuration; MergeJoin namespaces
	// their temporary files apart.
	st, err := repro.MergeJoin(context.Background(), j.s, j.in[0], j.s, j.in[1], cmp, join, j.out.r)
	j.commit(err)
	fmt.Printf("operator:         join\n")
	fmt.Printf("left consumed:    %d records (%d runs)\n", st.LeftIn, st.Left.Runs)
	fmt.Printf("right consumed:   %d records (%d runs)\n", st.RightIn, st.Right.Runs)
	fmt.Printf("emitted:          %d records\n", st.Out)
	fmt.Printf("largest key group: %d records\n", st.MaxGroup)
}
