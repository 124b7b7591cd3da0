package main

import (
	"fmt"
	"time"

	"repro/internal/distsort"
	"repro/internal/extsort"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// Span names of the traced sort. The phases of a sharded sort cannot be
// bracketed from outside distsort.Sort, so they are cut from its reported
// phase walls instead.
const (
	spanSort      = "sort"
	spanGenerate  = "extsort.generate"
	spanMerge     = "extsort.merge"
	spanSharded   = "distsort.sort"
	spanPartition = "distsort.partition"
	spanDrain     = "distsort.merge"
	spanSource    = "source"
	spanSink      = "sink"
	spanFile      = "vfs.file"
	spanDir       = "vfs.dir"
)

// split cuts a closed parent span into consecutive child spans of the
// given durations, starting at the parent's start, and returns their ids.
func (r *recorder) split(parent int, names []string, durations []time.Duration) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	ids := make([]int, len(names))
	at := p.Start
	for i, name := range names {
		end := min(at+int64(durations[i]), p.End)
		ids[i] = len(r.spans) + 1
		r.spans = append(r.spans, span{ID: ids[i], Parent: parent, SortID: p.SortID, Name: name, Start: at, End: end})
		at = end
	}
	return ids
}

func (r *recorder) reparent(a *aggregate, parent int) {
	r.mu.Lock()
	r.spans[a.id-1].Parent = parent
	r.mu.Unlock()
}

// sortInternal runs one verified sort of in through the internal entry
// points — extsort.GenerateRuns then RunSet.Merge, or distsort.Sort —
// which is where the public Sorter.Sort goes too. With a recorder it
// brackets each call with a span and wraps the file system, the source
// and the sink in timing aggregates; without one it runs bare.
func (w *workload[T]) sortInternal(t *tally, in input[T], fs vfs.FS, cfg extsort.Config, shards int, rec *recorder) (extsort.Stats, time.Duration, error) {
	rec.nextSort()
	t0 := time.Now()
	root := rec.push(spanSort)
	reader := stream.NewSliceReader(in.vals)
	var src stream.Reader[T] = reader
	var source, sink *aggregate
	if rec != nil {
		tfs := newTracedFS(fs, rec)
		defer tfs.dir.close()
		fs = tfs
	}
	st, err := verified(t, w, func() fingerprint { return in.want }, func(check *verifySink[T]) (extsort.Stats, error) {
		var dst stream.Writer[T] = check
		// Aggregates attach to the span that is current when they open.
		traceSource := func() {
			if rec != nil {
				source = rec.open(spanSource, in.name)
				src = &tracedSource[T]{src: reader, a: source}
			}
		}
		traceSink := func() {
			if rec != nil {
				sink = rec.open(spanSink, in.name)
				dst = &tracedSink[T]{dst: check, a: sink}
			}
		}
		if shards > 1 {
			sp := rec.push(spanSharded)
			traceSource()
			traceSink()
			st, err := distsort.Sort(src, dst, fs, distsort.Config{Shards: shards, Extsort: cfg}, w.ops)
			source.close()
			sink.close()
			rec.pop(sp)
			if rec != nil && err == nil && len(st.Phases) == 2 {
				ids := rec.split(sp, []string{spanPartition, spanDrain},
					[]time.Duration{st.Phases[0].Wall, st.Phases[1].Wall})
				rec.reparent(source, ids[0])
				rec.reparent(sink, ids[1])
			}
			return st, err
		}
		sp := rec.push(spanGenerate)
		traceSource()
		rset, err := extsort.GenerateRuns(src, fs, cfg, w.ops)
		source.close()
		rec.pop(sp)
		if err != nil {
			return extsort.Stats{}, err
		}
		sp = rec.push(spanMerge)
		traceSink()
		st, err := rset.Merge(dst)
		sink.close()
		rec.pop(sp)
		if err != nil {
			rset.Discard()
		}
		return st, err
	})
	rec.pop(root)
	return st, time.Since(t0), err
}

// spanMetrics reduces the spans of the traced sorts to the span-derived
// per-layer metrics.
func spanMetrics(spans []span) map[string]float64 {
	self := selfTimes(spans)
	m := map[string]float64{}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	for _, s := range spans {
		switch s.Name {
		case spanGenerate, spanPartition:
			m["extsort.generate_s"] += sec(s.duration())
			m["extsort.generate_self_s"] += sec(self[s.ID])
		case spanMerge, spanDrain:
			m["extsort.merge_s"] += sec(s.duration())
			m["extsort.merge_self_s"] += sec(self[s.ID])
		case spanSource:
			m["extsort.source_wait_s"] += sec(s.BusyNS)
		case spanSink:
			m["extsort.sink_busy_s"] += sec(s.BusyNS)
		case spanFile, spanDir:
			m["vfs.busy_s"] += sec(s.BusyNS)
			m["vfs.files_created"] += float64(s.Counts["create_calls"])
			m["vfs.write_calls"] += float64(s.Counts["write_calls"])
			m["vfs.read_calls"] += float64(s.Counts["read_calls"])
			m["vfs.bytes_written"] += float64(s.Counts["write"])
			m["vfs.bytes_read"] += float64(s.Counts["read"])
		}
	}
	return m
}

// trace is the traced pass: the per-layer numbers of one workload. Every
// sort in it runs at Parallelism 1, so spans nest and self times add up —
// except inside a sharded sort, whose shards are concurrent by design.
func (w *workload[T]) trace(p params, spansPath string) (*result, error) {
	res := w.newResult(p, true)
	dir, cleanup, err := spillDir(p.root, w.name+"-trace")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	ins, err := w.materialize(p)
	if err != nil {
		return nil, err
	}
	sorter, err := w.newSorter(dir, p)
	if err != nil {
		return nil, err
	}
	pub := sorter.Config()
	cfg, err := internalConfig(pub)
	if err != nil {
		return nil, err
	}
	seq := cfg
	seq.Parallelism = 1
	fs := vfs.NewOSFS(dir)
	l := newLedger()
	t := &res.tally

	// (a) After a full-size warm-up (the three walls below are compared
	// with each other, so none may be the cold one), the same sort three
	// ways: sequential and bare, through the public API at default
	// parallelism, and sequential again with tracing on.
	w.operation(t, sorter, ins)
	var bare, traced, records, encoded float64
	for _, in := range ins {
		_, d, _ := w.sortInternal(t, in, fs, seq, pub.Shards, nil)
		bare += d.Seconds()
		records += float64(len(in.vals))
		encoded += float64(in.encoded)
	}
	t0 := time.Now()
	_, publicRuns, _ := w.operation(t, sorter, ins)
	parallel := time.Since(t0).Seconds()

	rec := newRecorder()
	for _, in := range ins {
		l.dataset = in.name
		st, d, err := w.sortInternal(t, in, fs, seq, pub.Shards, rec)
		if err != nil {
			continue // counted as failed; the run exits non-zero
		}
		traced += d.Seconds()
		l.sum("extsort.runs", float64(st.Runs))
		l.ratio("extsort.run_len_over_mem", float64(st.Records), float64(st.Runs*cfg.Memory))
		l.worst("merge.passes", float64(st.MergePasses))
		l.sum("merge.ops", float64(st.MergeOps))
		// Every record is written once by generation; what the backend
		// took beyond that went through intermediate merge runs (and, in
		// a durable sort, the carry snapshots).
		l.ratio("merge.moved_over_n", float64(st.IO.RawBytesWritten-in.encoded), float64(in.encoded))
		l.ratio("storage.stored_over_raw", float64(st.IO.StoredBytesWritten), float64(st.IO.RawBytesWritten))
		l.sum("storage.blocks_written", float64(st.IO.BlocksWritten))
		l.sum("storage.verify_failures", float64(st.IO.VerifyFailures))
	}
	l.dataset = ""
	if got := int(l.value("extsort.runs")); res.Failed == 0 && got != publicRuns {
		// internalConfig has drifted from the public API's own conversion.
		return nil, fmt.Errorf("%s: the traced path generated %d runs, Sorter.Sort %d", w.name, got, publicRuns)
	}
	for name, v := range spanMetrics(rec.spans) {
		l.sum(name, v)
	}
	l.sum("extsort.parallel_speedup", bare/parallel)
	l.sum("trace.overhead_frac", traced/bare-1)

	// (b) Layer probes over a prefix of each dataset.
	n, _ := w.scaled(p)
	genLen, smallLen := probeLens(n, cfg.Memory)
	for _, in := range ins {
		l.dataset = in.name
		pr := &prober[T]{w: w, l: l, t: t, cfg: cfg, dir: dir,
			gen: in.vals[:min(genLen, len(in.vals))], small: in.vals[:min(smallLen, len(in.vals))]}
		if err := pr.run(); err != nil {
			return nil, fmt.Errorf("%s probes on %s: %w", w.name, in.name, err)
		}
	}
	l.dataset = ""

	// The ledger: what the probes predict the traced sorts should have
	// cost, against what they did cost. Generation at its probed cost per
	// record, its spill writes at the backend's probed cost per KiB, every
	// trip of a record through a merge at the probed cost per pass, plus
	// the measured time inside the benchmark's own source and sink.
	policyName := cfg.Policy.String()
	explained := (l.value("policy."+policyName+".gen_ns_per_rec")*records+
		l.value("storage.write_ns_per_kib")*encoded/1024+
		l.value("merge.ns_per_rec_pass")*records*(1+l.value("merge.moved_over_n")))/1e9 +
		l.value("extsort.source_wait_s") + l.value("extsort.sink_busy_s")
	l.sum("ledger.explained_frac", explained/traced)
	l.sum("ledger.unexplained_s", traced-explained)

	if err := writeSpans(spansPath, rec.spans); err != nil {
		return nil, err
	}
	res.Spans = spansPath
	res.Records = int64(records)
	if len(ins) > 1 {
		delete(l.rows, "")
		res.Datasets = l.rows
	}
	for _, m := range perLayerMetrics {
		res.record(m.Name, l.value(m.Name))
	}
	return res, nil
}
