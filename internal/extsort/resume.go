package extsort

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
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
// files, and Resume reconstructs a RunSet from that state after a crash
// (DESIGN.md §14).
//
// Durable mode does not change how runs are generated: the generator runs
// straight through the input exactly as in a plain sort (RunSet.generate),
// and a run boundary only appends a record identifying the run — its
// segments with their content sums, the policy that wrote it, the input
// position — to the manifest. An uninterrupted durable sort therefore
// writes exactly the plain sort's files. Every generator is a deterministic
// function of its input and configuration, so its state at a boundary is
// never stored: a resume builds a fresh generator over the input from
// record 0 and replays it, regenerating the recovered runs into a store
// that keeps nothing and checking each against its record, then writes for
// real from the last recovered boundary on — the uninterrupted sort's files
// again. A sort in lanes (lanes.go) does this per lane: every record names
// its lane, the input is dealt again from record 0, and each lane hands over
// to the real store at its own last recovered boundary.

// spillLayout is the one spill layout's name, which a manifest's header
// records: one written under another ("none", "flate") does not resume.
const spillLayout = "raw"

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
	fp := fmt.Sprintf("policy=%s memory=%d elem=%d page=%d pages_per_file=%d twrs=%+v",
		cfg.Policy, cfg.Memory, ops.ElementBytes(), page, pages, cfg.TWRS)
	if lanes := cfg.Lanes(); lanes > 1 {
		// The lanes and their blocks follow from the budget, but only under
		// this rule; a manifest written under another must not resume.
		fp += fmt.Sprintf(" lanes=%d deal=%d", lanes, cfg.dealLen())
	}
	return fp
}

// durableHeader builds the manifest identity record for this invocation.
func durableHeader[T any](cfg Config, ops Ops[T], em *runio.Emitter[T], keyed bool) manifest.Header {
	h := manifest.Header{
		Prefix:      cfg.Prefix,
		Codec:       fmt.Sprintf("%T", ops.Codec),
		Compression: spillLayout,
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
	if h.Compression != spillLayout {
		return &manifest.MismatchError{Field: "compression", Want: h.Compression, Got: spillLayout}
	}
	if got := generationFingerprint(cfg, ops, em); h.Generation != got {
		return &manifest.MismatchError{Field: "generation", Want: h.Generation, Got: got}
	}
	return nil
}

// runRecord is the manifest record of a run boundary, given the policy
// that wrote the run and the input read and names taken by then: what a
// durable pass commits there, and what a resumed pass regenerates there and
// compares with the record it recovered.
func runRecord(kind policy.Kind, run runio.Run, inputPos int64, namerSeq int) manifest.Run {
	return manifest.Run{Records: run.Records, Concatenable: run.Concatenable, Policy: kind.String(), Segments: run.Segments, InputPos: inputPos, NamerSeq: namerSeq}
}

// sameRun reports whether a regenerated boundary matches the recovered one:
// the same run — records, concatenability, policy, and every segment's
// name, length, layout and content sum — with at least as much input read.
// (A pass killed at its source can commit boundaries after a short last
// batch, so a replay may have read further; never less.)
func sameRun(got, want manifest.Run) bool {
	return got.Records == want.Records && got.Concatenable == want.Concatenable && got.Policy == want.Policy &&
		slices.Equal(got.Segments, want.Segments) && got.InputPos >= want.InputPos
}

// commitBoundary makes one run boundary durable: the run's files are whole
// on the store once their writers have closed, so it appends the run's
// record, with the arena's placement of its files, to the manifest. Once
// AppendRun returns, a crash anywhere later resumes at (or after) this
// boundary.
func (r *RunSet[T]) commitBoundary(man *manifest.Writer, gsp *obs.Span, mr manifest.Run) error {
	start, sp := time.Now(), gsp.Start("checkpoint")
	mr.Files = r.placements(mr)
	err := man.AppendRun(mr)
	sp.End()
	r.o.observeCheckpoint(time.Since(start))
	return err
}

// placements reports where the arena holds the files of a run record: each
// file of its non-empty segments.
func (r *RunSet[T]) placements(mr manifest.Run) []vfs.ArenaFile {
	n := 0
	for _, ms := range mr.Segments {
		n += max(ms.Files, 1)
	}
	files := make([]vfs.ArenaFile, 0, n)
	for _, ms := range mr.Segments {
		if ms.Records > 0 {
			ms.EachFile(func(name string, _ int) {
				if pf, ok := r.spill.Placement(name); ok {
					files = append(files, pf)
				}
			})
		}
	}
	return files
}

// placed gathers the arena files the given run records place.
func placed(runs []manifest.Run) []vfs.ArenaFile {
	var files []vfs.ArenaFile
	for _, mr := range runs {
		files = append(files, mr.Files...)
	}
	return files
}

// sumStream drains rc, recomputing its content checksum
// (runio.ContentSum) by re-encoding every element.
func sumStream[T any](rc *runio.Reader[T], ops Ops[T]) (n int64, sum uint64, err error) {
	defer rc.Close()
	buf := make([]T, 512)
	var scratch []byte
	for {
		k, rerr := rc.ReadBatch(buf)
		for _, v := range buf[:k] {
			scratch = ops.Codec.Append(scratch[:0], v)
			sum = runio.ContentSum(sum, scratch)
		}
		n += int64(k)
		if rerr == io.EOF || (rerr == nil && k == 0) {
			return n, sum, nil
		}
		if rerr != nil {
			return 0, 0, rerr
		}
	}
}

// validateRunFiles re-reads every segment of a manifest run and checks the
// element counts and content checksums against the record. A missing file
// surfaces as os.ErrNotExist (the caller treats it as "the durable prefix
// ends here"); present-but-mismatched data is manifest.ErrChecksum and
// always fatal — committed files are complete, so a mismatch is corruption.
// The backend holds no block checks of these files, which an earlier
// process wrote, so the content sums are their check; a file the storage
// layer finds cut short (storage.ErrCorrupt) is such a mismatch too, and
// the error matches manifest.ErrChecksum and the storage error both.
func validateRunFiles[T any](store storage.Backend, mr manifest.Run, ops Ops[T]) error {
	for _, ms := range mr.Segments {
		if ms.Records == 0 {
			continue
		}
		rc, err := runio.OpenSegment[T](store, ms, 0, ops.Codec)
		if err != nil {
			return err
		}
		n, sum, err := sumStream(rc, ops)
		if errors.Is(err, storage.ErrCorrupt) {
			return fmt.Errorf("%w: run %d: %w", manifest.ErrChecksum, mr.Seq, err)
		}
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

// toRunioRun reconstructs the in-memory run descriptor from its manifest
// record.
func toRunioRun(mr manifest.Run) runio.Run {
	return runio.Run{Records: mr.Records, Concatenable: mr.Concatenable, Segments: mr.Segments}
}

// adoptCommitted fills a RunSet shell from a fully validated committed
// manifest, recovering every run without touching the input. The arena,
// which has adopted the runs, holds their extents while the manifest names
// them.
func (r *RunSet[T]) adoptCommitted(st *manifest.State, entry time.Time) {
	r.spill.Hold()
	sp := r.o.tracer().Start("resume",
		obs.Int("runs_recovered", int64(len(st.Runs))), obs.Bool("committed", true))
	for _, mr := range st.Runs {
		r.runs = append(r.runs, toRunioRun(mr))
	}
	r.stats.RunsRecovered = len(r.runs)
	r.stats.Policy = r.cfg.Policy.String()
	if len(st.Runs) > 0 {
		r.stats.Generator = st.Runs[0].Policy
	}
	// The header names the key codec the runs were generated with
	// (checkHeader does not compare it): the merge runs keyed only when this
	// invocation carries a codec of that type, the one that passed the
	// committed sort's sample check.
	if r.stats.Keyed = r.ops.KeyCodec != nil && st.Header.KeyCodec == fmt.Sprintf("%T", r.ops.KeyCodec); r.stats.Keyed {
		r.em.KeyCodec = r.ops.KeyCodec
	}
	sp.End()
	r.finishGenerate("resume", time.Since(entry), entry, 0)
}

// Resume reconstructs a durable sort from the manifest a previous
// Manifest-mode pass left on fs and continues run generation from the last
// recoverable boundary. src must re-serve the same input from the start:
// Resume replays the generator over it, which costs the generation work of
// the recovered prefix but writes none of its files.
//
// Recovery is prefix-shaped: the longest leading sequence of runs whose
// files are all present and match their committed checksums is adopted. A
// fresh generator then regenerates those runs from the input, each checked
// against its record, and writes everything after the last of them with
// identical bytes (see the file comment). A missing file only shortens the
// prefix; present-but-mismatched data is manifest.ErrChecksum, and so is an
// input that regenerates a different run or ends before the recovered
// prefix does; a configuration change is manifest.MismatchError (errors.Is
// manifest.ErrMismatch), and no manifest at all is manifest.ErrNoManifest —
// wrong output is never produced.
func Resume[T any](src stream.BatchReader[T], fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	entry := time.Now()
	cfg.Manifest = true
	rset, err := newRunSet(fs, cfg, ops)
	if err != nil {
		return nil, err
	}
	// The manifest, its header checked against the invocation, and the
	// arena holding every file it places, so the runs can be read back.
	st, err := manifest.Load(fs, rset.manifestName)
	if err == nil {
		err = checkHeader(st.Header, rset.cfg, ops, rset.em)
	}
	if err == nil {
		err = rset.spill.Adopt(placed(st.Runs))
	}
	if err != nil {
		return nil, rset.abandon(err)
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
		return nil, rset.abandon(err)
	}
	if st.Committed && valid == len(st.Runs) {
		// Generation had finished and every run survived: adopt the whole
		// set without reading the input at all. Whatever a crash after the
		// commit left in the arena — half-written merge outputs — is free.
		rset.adoptCommitted(st, entry)
		return rset, nil
	}

	// The arena keeps the recovered prefix; the free list takes what it does
	// not place — runs past the prefix and half-written files of the crashed
	// pass, to be regenerated under the same names.
	if err := rset.spill.Adopt(placed(st.Runs[:valid])); err != nil {
		return nil, rset.abandon(err)
	}
	return rset.generate(src, st.Runs[:valid], entry)
}
