package extsort

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// This file implements durable (resumable) run generation: Config.Manifest
// records every run boundary in a CRC-guarded manifest beside the spill
// files, and Resume/OpenRunSet reconstruct a RunSet from that state after a
// crash or across processes (DESIGN.md §14).
//
// Durable mode does not change how runs are generated: the generator runs
// straight through the input exactly as in a plain sort (RunSet.generate),
// and every run boundary is a checkpoint taken in place — the records the
// generator holds, listed in positional order into a snapshot file, plus a
// few state words in the manifest record. An uninterrupted durable sort
// therefore writes the plain sort's run files byte for byte, and a sort
// resumed at boundary j restores the generator exactly as it stood there,
// so it writes the uninterrupted sort's.

// neverLess is the comparator for snapshot files: generator state is listed
// by position, not in sorted order, so order validation is disabled.
func neverLess[T any](a, b T) bool { return false }

// skipInput fast-forwards src, which re-serves input a previous pass already
// consumed, to record n and returns the last keep records before it (all n,
// if fewer) for the restored generator's Checkpoint.Tail. Running out early
// means the source is not the same input the manifest was written against.
func skipInput[T any](src stream.BatchReader[T], n int64, keep int) ([]T, error) {
	keep = int(min(n, int64(keep)))
	done, err := stream.Discard(src, n-int64(keep), nil)
	var tail []T
	if err == nil {
		tail, _, err = stream.ReadPrefix(src, make([]T, 0, keep), keep, nil)
	}
	if done += int64(len(tail)); err == nil && done < n {
		err = fmt.Errorf("extsort: resume: input ended after %d records but the manifest recorded position %d; the source must re-serve the original input from the start", done, n)
	}
	return tail, err
}

// compressionName returns the canonical spill framing name for the header.
func compressionName(cfg Config) string {
	comp, err := storage.ParseCompression(cfg.Storage.Compression)
	if err != nil {
		return cfg.Storage.Compression
	}
	return string(comp)
}

// generationFingerprint strings together every knob that shapes the
// deterministic run sequence. Two invocations with equal fingerprints (and
// equal inputs) generate identical runs; anything else must not resume.
func generationFingerprint[T any](cfg Config, ops Ops[T], em *runio.Emitter[T]) string {
	page, pages := em.PageSize, em.PagesPerFile
	if page == 0 {
		page = runio.DefaultPageSize
	}
	if pages == 0 {
		pages = runio.DefaultPagesPerFile
	}
	return fmt.Sprintf("policy=%s memory=%d elem=%d page=%d pages_per_file=%d twrs=%+v",
		cfg.Policy, cfg.Memory, ops.elementBytes(), page, pages, cfg.TWRS)
}

// durableHeader builds the manifest identity record for this invocation.
func durableHeader[T any](cfg Config, ops Ops[T], em *runio.Emitter[T], keyed bool) manifest.Header {
	h := manifest.Header{
		Prefix:      cfg.Prefix,
		Codec:       fmt.Sprintf("%T", ops.Codec),
		Compression: compressionName(cfg),
		Generation:  generationFingerprint(cfg, ops, em),
	}
	if keyed {
		h.KeyCodec = fmt.Sprintf("%T", ops.KeyCodec)
	}
	return h
}

// checkHeader refuses to resume under an incompatible configuration. The
// key codec is deliberately not checked: keyed and comparator sorts emit
// byte-identical runs, so flipping it between passes is safe.
func checkHeader[T any](h manifest.Header, cfg Config, ops Ops[T], em *runio.Emitter[T]) error {
	if got := fmt.Sprintf("%T", ops.Codec); h.Codec != got {
		return &manifest.MismatchError{Field: "codec", Want: h.Codec, Got: got}
	}
	if got := compressionName(cfg); h.Compression != got {
		return &manifest.MismatchError{Field: "compression", Want: h.Compression, Got: got}
	}
	if got := generationFingerprint(cfg, ops, em); h.Generation != got {
		return &manifest.MismatchError{Field: "generation", Want: h.Generation, Got: got}
	}
	return nil
}

// commitBoundary makes one run boundary durable, with the generator at rest
// after run and emitted records in the runs so far: it writes the records
// gen holds to a snapshot file in the order Checkpoint lists them, then
// appends the manifest record tying together the run's file shape and
// content checksums, the snapshot with its order-sensitive checksum and
// state words, and the input position. Once AppendRun returns, a crash
// anywhere later resumes at (or after) this boundary. It returns the
// snapshot's name, empty when gen held nothing.
func (r *RunSet[T]) commitBoundary(man *manifest.Writer, gsp *obs.Span, gen policy.Driven[T], run runio.Run, emitted int64) (string, error) {
	// The boundary is a barrier: what the manifest is about to call
	// committed must be whole on the store first.
	if err := r.em.Barrier(); err != nil {
		return "", err
	}
	start, written := time.Now(), r.store.Stats().RawBytesWritten
	sp := gsp.Start("checkpoint")
	mr := manifest.Run{
		Records:      run.Records,
		Concatenable: run.Concatenable,
		Policy:       gen.Kind().String(),
	}
	for _, seg := range run.Segments {
		mr.Segments = append(mr.Segments, manifest.Segment{Name: seg.Name, Records: seg.Records, Backward: seg.Backward, Files: seg.Files, Sum: seg.Sum})
	}
	// The snapshot file exists only if the generator holds anything; a
	// write error is kept and the rest of the listing dropped.
	var (
		w   *runio.Writer[T]
		err error
	)
	mr.State = gen.Checkpoint(func(v T) {
		if w == nil && err == nil {
			mr.CarryName = r.em.Namer.Next("carry")
			if w, err = runio.NewWriter(r.em.Store, mr.CarryName, 0, r.ops.Codec, neverLess[T]); err == nil {
				w.SumStream()
			}
		}
		if err == nil {
			err = w.Write(v)
		}
	})
	if w != nil {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		mr.CarryRecords, mr.CarrySum = w.Count(), w.Sum()
	}
	if err == nil {
		// Every record consumed is either in a run by now or held.
		mr.InputPos, mr.NamerSeq = emitted+mr.CarryRecords, r.em.Namer.Seq()
		mr.Files = r.placements(mr)
		err = man.AppendRun(mr)
	}
	written = r.store.Stats().RawBytesWritten - written
	sp.End(obs.Int("records", mr.CarryRecords), obs.Int("bytes", written))
	r.o.observeCheckpoint(written, time.Since(start))
	return mr.CarryName, err
}

// placements reports where the arena holds the files of a run record: each
// file of its non-empty segments, then its snapshot.
func (r *RunSet[T]) placements(mr manifest.Run) []vfs.ArenaFile {
	var files []vfs.ArenaFile
	place := func(name string, _ int) {
		if pf, ok := r.spill.Placement(name); ok {
			files = append(files, pf)
		}
	}
	for _, ms := range mr.Segments {
		if ms.Records > 0 {
			toSegment(ms).EachFile(place)
		}
	}
	if mr.CarryName != "" {
		place(mr.CarryName, 0)
	}
	return files
}

// placed gathers the arena files the given run records place, snapshots
// only with carries.
func placed(runs []manifest.Run, carries bool) []vfs.ArenaFile {
	var files []vfs.ArenaFile
	for _, mr := range runs {
		for _, pf := range mr.Files {
			if carries || pf.Name != mr.CarryName {
				files = append(files, pf)
			}
		}
	}
	return files
}

// sumStream drains rc, recomputing a checksum by re-encoding every element
// and folding it in with fold — runio.ContentSum for run segments,
// runio.StreamSum for snapshots; with collect it also returns the elements.
func sumStream[T any](rc *runio.Reader[T], ops Ops[T], fold func(uint64, []byte) uint64, collect bool) (elems []T, n int64, sum uint64, err error) {
	defer rc.Close()
	buf := make([]T, 512)
	var scratch []byte
	for {
		k, rerr := rc.ReadBatch(buf)
		for _, v := range buf[:k] {
			scratch = ops.Codec.Append(scratch[:0], v)
			sum = fold(sum, scratch)
		}
		if collect {
			elems = append(elems, buf[:k]...)
		}
		n += int64(k)
		if rerr == io.EOF || (rerr == nil && k == 0) {
			return elems, n, sum, nil
		}
		if rerr != nil {
			return nil, 0, 0, rerr
		}
	}
}

// validateRunFiles re-reads every segment of a manifest run and checks the
// element counts and content checksums against the record. A missing file
// surfaces as os.ErrNotExist (the caller treats it as "the durable prefix
// ends here"); present-but-mismatched data is manifest.ErrChecksum and
// always fatal — committed files are complete, so a mismatch is corruption.
func validateRunFiles[T any](store storage.Backend, mr manifest.Run, ops Ops[T]) error {
	for _, ms := range mr.Segments {
		if ms.Records == 0 {
			continue
		}
		rc, err := runio.OpenSegment[T](store, toSegment(ms), 0, ops.Codec)
		if err != nil {
			return err
		}
		_, n, sum, err := sumStream(rc, ops, runio.ContentSum, false)
		if err != nil {
			return err
		}
		if n != ms.Records || sum != ms.Sum {
			return fmt.Errorf("%w: run %d segment %s: manifest committed %d records (sum %016x), file holds %d (sum %016x)",
				manifest.ErrChecksum, mr.Seq, ms.Name, ms.Records, ms.Sum, n, sum)
		}
	}
	return nil
}

// readSnapshot loads a boundary's generator checkpoint: the state words
// from the manifest record and, when the generator held anything, the
// snapshot file, validated in order against its committed checksum.
func readSnapshot[T any](store storage.Backend, mr manifest.Run, ops Ops[T]) (*policy.Checkpoint[T], error) {
	from := &policy.Checkpoint[T]{State: mr.State}
	if mr.CarryName == "" {
		return from, nil
	}
	rc, err := runio.NewReader[T](store, mr.CarryName, 0, ops.Codec)
	if err != nil {
		return nil, err
	}
	elems, n, sum, err := sumStream[T](rc, ops, runio.StreamSum, true)
	if err != nil {
		return nil, err
	}
	if n != mr.CarryRecords || sum != mr.CarrySum {
		return nil, fmt.Errorf("%w: snapshot %s: manifest committed %d records (sum %08x), file holds %d (sum %08x)",
			manifest.ErrChecksum, mr.CarryName, mr.CarryRecords, mr.CarrySum, n, sum)
	}
	from.Recs = elems
	return from, nil
}

// toSegment reconstructs a segment's description from its manifest record.
func toSegment(ms manifest.Segment) runio.Segment {
	return runio.Segment{Name: ms.Name, Records: ms.Records, Backward: ms.Backward, Files: ms.Files, Sum: ms.Sum}
}

// toRunioRun reconstructs the in-memory run descriptor from its manifest
// record.
func toRunioRun(mr manifest.Run) runio.Run {
	run := runio.Run{Records: mr.Records, Concatenable: mr.Concatenable}
	for _, ms := range mr.Segments {
		run.Segments = append(run.Segments, toSegment(ms))
	}
	return run
}

// adoptCommitted fills a RunSet shell from a fully validated committed
// manifest, recovering every run without touching the input. The arena
// keeps the runs and frees everything else — snapshots included: nothing
// restarts from a committed manifest, and a crash between the commit and
// generate's snapshot removals would otherwise leave them behind for good
// — and holds the runs' extents while the manifest names them.
func (r *RunSet[T]) adoptCommitted(st *manifest.State, entry time.Time) (*RunSet[T], error) {
	if err := r.spill.Adopt(placed(st.Runs, false)); err != nil {
		return r.abortSetup(err)
	}
	r.spill.Hold()
	sp := r.o.tracer().Start("resume",
		obs.Int("runs_recovered", int64(len(st.Runs))), obs.Bool("committed", true))
	for _, mr := range st.Runs {
		r.runs = append(r.runs, toRunioRun(mr))
		r.policies = append(r.policies, mr.Policy)
	}
	r.stats.RunsRecovered = len(r.runs)
	r.stats.Policy = r.cfg.Policy.String()
	if n := len(st.Runs); n > 0 {
		r.stats.PolicySwitches = policy.SwitchesAt(r.cfg.Policy, st.Runs[n-1].State)
	}
	r.stats.Keyed = st.Header.KeyCodec != ""
	sp.End()
	r.o.observeRecovered(len(r.runs))
	r.finishGenerate("resume", time.Since(entry), entry)
	return r, nil
}

// openDurable is the common opening of Resume and OpenRunSet: the RunSet
// shell of a durable sort plus the loaded manifest, its header checked
// against the invocation, and the arena holding every file it places.
func openDurable[T any](fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], *manifest.State, error) {
	cfg.Manifest = true
	rset, err := newRunSet(fs, cfg, ops)
	if err != nil {
		return nil, nil, err
	}
	st, err := manifest.Load(fs, rset.manifestName)
	if err == nil {
		err = checkHeader(st.Header, rset.cfg, ops, rset.em)
	}
	if err == nil {
		err = rset.spill.Adopt(placed(st.Runs, true))
	}
	if err != nil {
		rset.abortSetup(err)
		return nil, nil, err
	}
	return rset, st, nil
}

// Resume reconstructs a durable sort from the manifest a previous
// Manifest-mode pass left on fs and continues run generation from the last
// recoverable boundary. src must re-serve the same input from the start;
// Resume fast-forwards it to the recorded position, so only unprocessed
// records are read in full.
//
// Recovery is prefix-shaped: the longest leading sequence of runs whose
// files are all present and match their committed checksums — and whose
// boundary snapshot validates — is adopted; the generator is restored from
// that snapshot exactly as it stood, so everything after the boundary is
// regenerated with identical bytes (see the file comment). A missing file
// only shortens the prefix; present-but-mismatched data — a snapshot with
// two records swapped included — is manifest.ErrChecksum, a configuration
// change is manifest.MismatchError (errors.Is manifest.ErrMismatch), and no
// manifest at all is manifest.ErrNoManifest — wrong output is never
// produced.
func Resume[T any](src stream.BatchReader[T], fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	entry := time.Now()
	rset, st, err := openDurable(fs, cfg, ops)
	if err != nil {
		return nil, err
	}

	// The longest contiguous prefix of runs whose files validate.
	valid := 0
	for valid < len(st.Runs) {
		err := validateRunFiles(rset.store, st.Runs[valid], rset.ops)
		if err == nil {
			valid++
			continue
		}
		if errors.Is(err, os.ErrNotExist) {
			break
		}
		return rset.abortSetup(err)
	}
	if st.Committed && valid == len(st.Runs) {
		// Generation had finished and every run survived: adopt the whole
		// set without reading the input at all. Whatever a crash after the
		// commit left in the arena — half-written merge outputs — is free.
		return rset.adoptCommitted(st, entry)
	}

	// Walk back to a boundary whose snapshot is available: a missing
	// snapshot (like a missing run file) just shortens the prefix further,
	// down to boundary 0, which starts fresh.
	var from *policy.Checkpoint[T]
	j := valid
	for ; j > 0; j-- {
		from, err = readSnapshot(rset.store, st.Runs[j-1], rset.ops)
		if err == nil {
			break
		}
		if !errors.Is(err, os.ErrNotExist) {
			return rset.abortSetup(err)
		}
	}
	// The arena keeps the recovered prefix; the free list takes what it does
	// not place — runs past the boundary, stale snapshots, and half-written
	// files of the crashed pass, to be regenerated under the same names.
	if err := rset.spill.Adopt(placed(st.Runs[:j], true)); err != nil {
		return rset.abortSetup(err)
	}
	return rset.generate(src, st.Runs[:j], from, entry)
}

// OpenRunSet adopts the run set of a completed (committed) Manifest-mode
// generation pass, typically from another process: every run file is
// validated against the manifest before any of them is trusted. It never
// reads the sort input — an uncommitted manifest is manifest.ErrNotCommitted
// (resume that with Resume, which can regenerate), and a committed manifest
// with missing or mismatched files is an error rather than a partial set.
func OpenRunSet[T any](fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	entry := time.Now()
	rset, st, err := openDurable(fs, cfg, ops)
	if err != nil {
		return nil, err
	}
	if !st.Committed {
		return rset.abortSetup(fmt.Errorf("%w: %s", manifest.ErrNotCommitted, rset.manifestName))
	}
	for _, mr := range st.Runs {
		if err := validateRunFiles(rset.store, mr, rset.ops); err != nil {
			return rset.abortSetup(err)
		}
	}
	return rset.adoptCommitted(st, entry)
}

// Persist reports the manifest file name describing this run set, so
// another process can adopt the runs with OpenRunSet (same fs, same
// Config.Prefix). The manifest is already durable and committed by the
// time GenerateRuns returns; Persist only names it. It errors for
// non-durable sorts, and after Merge or Discard have invalidated the
// manifest.
func (r *RunSet[T]) Persist() (string, error) {
	if r.manifestName == "" {
		return "", fmt.Errorf("extsort: Persist needs a durable sort (Config.Manifest) whose manifest is still live")
	}
	return r.manifestName, nil
}
