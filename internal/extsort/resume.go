package extsort

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"repro/internal/manifest"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/rs"
	"repro/internal/runio"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"

	"repro/internal/core"
)

// This file implements durable (resumable) run generation: Config.Manifest
// records every run boundary in a CRC-guarded manifest beside the spill
// files, and Resume/OpenRunSet reconstruct a RunSet from that state after a
// crash or across processes (DESIGN.md §14).
//
// The key property durable mode buys is determinism: the generator is
// restarted at every run boundary from an explicit carried-state snapshot,
// so the run sequence is a pure function of (input, configuration). A sort
// resumed at boundary j therefore produces byte-identical runs — and a
// byte-identical merged output — to one that never crashed.

// neverLess is the comparator for carry snapshot files: carried generator
// state is an arbitrary permutation, so order validation is disabled.
func neverLess[T any](a, b T) bool { return false }

// recovered is the state Resume reconstructs from a manifest: the intact
// prefix of runs plus everything needed to restart generation at the
// boundary after them.
type recovered[T any] struct {
	runs     []runio.Run
	policies []string
	manRuns  []manifest.Run // manifest records backing runs, re-seeded on rewrite
	carried  []T            // generator state carried across the resume boundary
	inputPos int64          // input records consumed up to the boundary
	namerSeq int            // spill Namer position at the boundary
}

// countReader counts every record drained from the wrapped source; the
// count at a run boundary is the durable input position.
type countReader[T any] struct {
	src stream.Reader[T]
	br  stream.BatchReader[T]
	n   int64
}

func (c *countReader[T]) Read() (T, error) {
	v, err := c.src.Read()
	if err == nil {
		c.n++
	}
	return v, err
}

func (c *countReader[T]) ReadBatch(dst []T) (int, error) {
	n, err := c.br.ReadBatch(dst)
	c.n += int64(n)
	return n, err
}

// sizedCountReader additionally forwards the source's Remaining.
type sizedCountReader[T any] struct {
	*countReader[T]
	sized stream.Sized
}

func (c *sizedCountReader[T]) Remaining() int { return c.sized.Remaining() }

// countSource wraps src in a counting reader and returns it with a pointer
// to the live count.
func countSource[T any](src stream.Reader[T]) (stream.Reader[T], *int64) {
	c := &countReader[T]{src: src, br: stream.AsBatchReader(src)}
	if s, ok := src.(stream.Sized); ok {
		return &sizedCountReader[T]{countReader: c, sized: s}, &c.n
	}
	return c, &c.n
}

// skipInput drains exactly n records from src, which re-serves input a
// previous pass already consumed. Running out early means the source is not
// the same input the manifest was written against.
func skipInput[T any](src stream.Reader[T], n int64) error {
	if n <= 0 {
		return nil
	}
	br := stream.AsBatchReader(src)
	buf := make([]T, 1024)
	var done int64
	for done < n {
		want := int64(len(buf))
		if rem := n - done; rem < want {
			want = rem
		}
		k, err := br.ReadBatch(buf[:want])
		done += int64(k)
		if done >= n {
			return nil
		}
		if err == io.EOF || (err == nil && k == 0) {
			return fmt.Errorf("extsort: resume: input ended after %d records but the manifest recorded position %d; the source must re-serve the original input from the start", done, n)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// validateDurable rejects configurations durable mode cannot checkpoint.
func validateDurable(cfg Config) error {
	if cfg.Policy == policy.Auto {
		return fmt.Errorf("extsort: the auto policy's adaptive probe state cannot be checkpointed; durable (Manifest/Resume) sorts need a fixed policy or a legacy Algorithm")
	}
	if cfg.Memory <= 0 {
		return fmt.Errorf("extsort: memory must be positive, got %d", cfg.Memory)
	}
	return nil
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
	pol := cfg.Algorithm.String()
	if cfg.Policy != policy.None {
		pol = cfg.Policy.String()
	}
	page, pages := em.PageSize, em.PagesPerFile
	if page == 0 {
		page = runio.DefaultPageSize
	}
	if pages == 0 {
		pages = runio.DefaultPagesPerFile
	}
	return fmt.Sprintf("policy=%s memory=%d elem=%d page=%d pages_per_file=%d twrs=%+v",
		pol, cfg.Memory, ops.elementBytes(), page, pages, cfg.TWRS)
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

// durableSetup builds the RunSet shell — storage, observability, emitter —
// shared by fresh durable generation, Resume and OpenRunSet. It mirrors
// GenerateRuns' setup exactly so the spill layout is identical.
func durableSetup[T any](fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	store, err := storage.New(fs, cfg.Storage)
	if err != nil {
		return nil, err
	}
	o := newSortObs(cfg)
	store = storage.Traced(store, o.tracer())
	em := runio.NewEmitterOn(store, cfg.Prefix, ops.Codec, ops.Less)
	em.PageSize = cfg.PageSize
	em.PagesPerFile = cfg.PagesPerFile
	if em.PagesPerFile == 0 && cfg.Clock == nil {
		em.PagesPerFile = backwardPages(cfg.Memory, ops.elementBytes(), cfg.PageSize)
	}
	em.Async = cfg.Parallelism > 1
	clock := cfg.Clock
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	rset := &RunSet[T]{
		store: store, em: em, cfg: cfg, ops: ops, clock: clock, o: o,
		fs: fs, manifestName: manifest.Name(cfg.Prefix),
	}
	rset.stats.Storage = store.String()
	return rset, nil
}

// abortSetup unwinds a durableSetup whose sort never started.
func (r *RunSet[T]) abortSetup(err error) (*RunSet[T], error) {
	r.o.reporter().Stop()
	return nil, err
}

// newBoundaryGenerator constructs a fresh run generator positioned at run
// boundary runIdx. Durable mode restarts the generator at every boundary so
// its entire state is the explicit carried snapshot; the alternating
// policy's direction is recovered from the run index parity.
func newBoundaryGenerator[T any](cfg Config, runIdx int, src stream.Reader[T], em *runio.Emitter[T], key func(T) float64) (policy.Generator[T], error) {
	if cfg.Policy != policy.None {
		return policy.NewFixed(cfg.Policy, runIdx%2 == 1, src, em,
			policy.Config{Memory: cfg.Memory, TWRS: cfg.TWRS}, key)
	}
	switch cfg.Algorithm {
	case RS:
		return rs.NewStepper(src, em, cfg.Memory)
	case LoadSortStore:
		return rs.NewLSSStepper(src, em, cfg.Memory)
	case TwoWayRS:
		return core.NewStepper(src, em, cfg.TWRS, key)
	}
	return nil, fmt.Errorf("extsort: unknown algorithm %v", cfg.Algorithm)
}

// generateManifest is the durable counterpart of GenerateRuns' generation
// loop: it checkpoints the generator at every run boundary, appends a
// manifest record per boundary, and commits the manifest when the input is
// exhausted. With rec set it continues a recovered pass instead of starting
// fresh. On error the spill files and manifest stay on disk for Resume.
func generateManifest[T any](src stream.Reader[T], fs vfs.FS, cfg Config, ops Ops[T], rec *recovered[T]) (*RunSet[T], error) {
	entry := time.Now()
	cfg = cfg.withDefaults()
	if err := ops.validate(); err != nil {
		return nil, err
	}
	if err := validateDurable(cfg); err != nil {
		return nil, err
	}
	rset, err := durableSetup(fs, cfg, ops)
	if err != nil {
		return nil, err
	}
	return rset.generateDurable(src, rec, entry)
}

// generateDurable runs the checkpointed generation loop on a prepared
// RunSet shell.
func (r *RunSet[T]) generateDurable(src stream.Reader[T], rec *recovered[T], entry time.Time) (*RunSet[T], error) {
	cfg, ops, em, o := r.cfg, r.ops, r.em, r.o
	em.Checksums = true

	src, keyed, err := applyKeyCodec(src, em, ops)
	if err != nil {
		return r.abortSetup(err)
	}
	r.stats.Keyed = keyed

	var man *manifest.Writer
	hdr := durableHeader(cfg, ops, em, keyed)
	if rec == nil {
		man, err = manifest.Create(r.fs, r.manifestName, hdr)
	} else {
		man, err = manifest.Rewrite(r.fs, r.manifestName, hdr, rec.manRuns)
	}
	if err != nil {
		return r.abortSetup(err)
	}

	polName := cfg.Algorithm.String()
	if cfg.Policy != policy.None {
		polName = cfg.Policy.String()
	}
	gsp := o.tracer().Start("generate",
		obs.Str("policy", polName), obs.Bool("keyed", keyed), obs.Bool("durable", true))
	fail := func(err error) (*RunSet[T], error) {
		gsp.End(obs.Str("error", err.Error()))
		man.Close()
		o.reporter().Stop()
		// Unlike the non-durable path there is no Discard here: the spill
		// files and manifest are exactly the state Resume needs. But an
		// abandoned run writer's background flusher must still be joined,
		// or it would keep appending to the surviving files while a later
		// Resume reads them.
		em.AbortOpen()
		return nil, err
	}

	counted, pos := countSource(src)
	var (
		carried []T
		carries []string
		runIdx  int
	)
	if rec != nil {
		rsp := o.tracer().Start("resume",
			obs.Int("runs_recovered", int64(len(rec.runs))), obs.Int("input_pos", rec.inputPos))
		if err := skipInput(counted, rec.inputPos); err != nil {
			rsp.End(obs.Str("error", err.Error()))
			return fail(err)
		}
		rsp.End()
		r.runs = append(r.runs, rec.runs...)
		r.policies = append(r.policies, rec.policies...)
		for _, mr := range rec.manRuns {
			if mr.CarryName != "" {
				carries = append(carries, mr.CarryName)
			}
		}
		for _, run := range rec.runs {
			if !run.Concatenable {
				r.stats.OverlapRuns++
			}
		}
		carried = rec.carried
		runIdx = len(rec.runs)
		em.Namer.SetSeq(rec.namerSeq)
		r.stats.RunsRecovered = len(rec.runs)
		o.observeRecovered(len(rec.runs))
	}

	gen := meterSource(o, counted)
	simStart, wallStart := r.clock(), time.Now()
	for {
		var cur stream.Reader[T] = gen
		if len(carried) > 0 {
			cur = &pushback[T]{buf: carried, rest: gen}
		}
		g, err := newBoundaryGenerator(cfg, runIdx, cur, em, ops.Key)
		if err != nil {
			return fail(err)
		}
		sp := gsp.Start("run", obs.Str("policy", polName))
		run, ok, err := g.NextRun()
		if err != nil {
			sp.Drop()
			return fail(err)
		}
		if !ok {
			sp.Drop()
			break
		}
		sp.End(obs.Int("records", run.Records), obs.Bool("concatenable", run.Concatenable))
		carried = g.Carry()
		mr, err := r.commitBoundary(man, run, carried, polName, *pos)
		if err != nil {
			return fail(err)
		}
		if mr.CarryName != "" {
			carries = append(carries, mr.CarryName)
		}
		r.runs = append(r.runs, run)
		r.policies = append(r.policies, polName)
		if !run.Concatenable {
			r.stats.OverlapRuns++
		}
		runIdx++
	}
	// Commit before deleting carry snapshots: a crash between the two
	// leaves a committed manifest whose runs are all complete, which
	// recovers fully; the stale carries are swept on the next resume.
	if err := man.Commit(*pos); err != nil {
		return fail(err)
	}
	if err := man.Close(); err != nil {
		return fail(err)
	}
	for _, name := range carries {
		r.store.Remove(name)
	}
	em.Checksums = false // the merge phase does not update the manifest

	r.stats.Records = *pos
	r.stats.Policy = polName
	r.stats.Runs = len(r.runs)
	if r.stats.Runs > 0 {
		r.stats.AvgRunLength = float64(r.stats.Records) / float64(r.stats.Runs)
	}
	r.stats.RunGenWall = time.Since(wallStart)
	r.stats.RunGenSim = r.clock() - simStart
	r.stats.IO = r.store.Stats()
	r.stats.Elapsed = time.Since(entry)
	r.stats.Phases = []PhaseStat{{Name: "generate", Wall: r.stats.RunGenWall}}
	gsp.End(obs.Int("runs", int64(r.stats.Runs)), obs.Int("records", r.stats.Records))
	for _, run := range r.runs {
		o.observeRun(run.Records)
	}
	o.finishGenerate(r.stats, r.stats.IO)
	return r, nil
}

// commitBoundary makes one run boundary durable: it snapshots the carried
// generator state to a spill file, then appends the manifest record tying
// together the run's file shape, the content checksums, the carry snapshot
// and the input position. Once AppendRun returns, a crash anywhere later
// resumes at (or after) this boundary.
func (r *RunSet[T]) commitBoundary(man *manifest.Writer, run runio.Run, carried []T, polName string, inputPos int64) (manifest.Run, error) {
	mr := manifest.Run{
		Records:      run.Records,
		Concatenable: run.Concatenable,
		Policy:       polName,
		InputPos:     inputPos,
	}
	for _, seg := range run.Segments {
		ms := manifest.Segment{Name: seg.Name, Records: seg.Records, Backward: seg.Backward, Files: seg.Files}
		if seg.Records > 0 {
			sum, ok := r.em.Sum(seg.Name)
			if !ok {
				return mr, fmt.Errorf("extsort: internal: no content checksum recorded for segment %s", seg.Name)
			}
			ms.Sum = sum
		}
		mr.Segments = append(mr.Segments, ms)
	}
	if len(carried) > 0 {
		name := r.em.Namer.Next("carry")
		w, err := runio.NewWriter(r.em.Store, name, r.em.WriteBuf, r.ops.Codec, neverLess[T])
		if err != nil {
			return mr, err
		}
		var sum uint64
		w.Track(func(_ int64, s uint64) { sum = s })
		if err := w.WriteBatch(carried); err != nil {
			w.Close()
			return mr, err
		}
		if err := w.Close(); err != nil {
			return mr, err
		}
		mr.CarryName, mr.CarryRecords, mr.CarrySum = name, int64(len(carried)), sum
	}
	mr.NamerSeq = r.em.Namer.Seq()
	if err := man.AppendRun(mr); err != nil {
		return mr, err
	}
	return mr, nil
}

// sumStream drains rc, recomputing the order-insensitive content checksum
// by re-encoding every element; with collect it also returns the elements.
func sumStream[T any](rc runio.ReadCloser[T], ops Ops[T], collect bool) (elems []T, n int64, sum uint64, err error) {
	defer rc.Close()
	br := stream.AsBatchReader[T](rc)
	buf := make([]T, 512)
	var scratch []byte
	for {
		k, rerr := br.ReadBatch(buf)
		for _, v := range buf[:k] {
			scratch = ops.Codec.Append(scratch[:0], v)
			sum += uint64(crc32.ChecksumIEEE(scratch))
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
		seg := runio.Segment{Name: ms.Name, Records: ms.Records, Backward: ms.Backward, Files: ms.Files}
		rc, err := runio.OpenSegment[T](store, seg, 0, ops.Codec)
		if err != nil {
			return err
		}
		_, n, sum, err := sumStream(rc, ops, false)
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

// readCarry loads and validates a boundary's carried-state snapshot.
func readCarry[T any](store storage.Backend, mr manifest.Run, ops Ops[T]) ([]T, error) {
	rc, err := runio.NewReader[T](store, mr.CarryName, 0, ops.Codec)
	if err != nil {
		return nil, err
	}
	elems, n, sum, err := sumStream[T](rc, ops, true)
	if err != nil {
		return nil, err
	}
	if n != mr.CarryRecords || sum != mr.CarrySum {
		return nil, fmt.Errorf("%w: carry %s: manifest committed %d records (sum %016x), file holds %d (sum %016x)",
			manifest.ErrChecksum, mr.CarryName, mr.CarryRecords, mr.CarrySum, n, sum)
	}
	return elems, nil
}

// toRunioRun reconstructs the in-memory run descriptor from its manifest
// record.
func toRunioRun(mr manifest.Run) runio.Run {
	run := runio.Run{Records: mr.Records, Concatenable: mr.Concatenable}
	for _, ms := range mr.Segments {
		run.Segments = append(run.Segments, runio.Segment{
			Name: ms.Name, Records: ms.Records, Backward: ms.Backward, Files: ms.Files,
		})
	}
	return run
}

// referencedNames returns every physical file name the given manifest runs
// reference: forward segment files, each file of a backward chain, and
// carry snapshots.
func referencedNames(runs []manifest.Run) map[string]bool {
	ref := make(map[string]bool)
	for _, mr := range runs {
		for _, ms := range mr.Segments {
			if ms.Records == 0 {
				continue
			}
			if ms.Backward {
				for i := 0; i < ms.Files; i++ {
					ref[fmt.Sprintf("%s.%d", ms.Name, i)] = true
				}
			} else {
				ref[ms.Name] = true
			}
		}
		if mr.CarryName != "" {
			ref[mr.CarryName] = true
		}
	}
	return ref
}

// adoptCommitted fills a RunSet shell from a fully validated committed
// manifest, recovering every run without touching the input.
func (r *RunSet[T]) adoptCommitted(st *manifest.State, entry time.Time) *RunSet[T] {
	o := r.o
	sp := o.tracer().Start("resume",
		obs.Int("runs_recovered", int64(len(st.Runs))), obs.Bool("committed", true))
	for _, mr := range st.Runs {
		run := toRunioRun(mr)
		r.runs = append(r.runs, run)
		r.policies = append(r.policies, mr.Policy)
		if !run.Concatenable {
			r.stats.OverlapRuns++
		}
		o.observeRun(run.Records)
	}
	r.stats.Records = st.Commit.Records
	r.stats.Runs = len(r.runs)
	if r.stats.Runs > 0 {
		r.stats.AvgRunLength = float64(r.stats.Records) / float64(r.stats.Runs)
	}
	r.stats.RunsRecovered = len(r.runs)
	if len(st.Runs) > 0 {
		r.stats.Policy = st.Runs[0].Policy
	}
	r.stats.Keyed = st.Header.KeyCodec != ""
	r.stats.RunGenWall = time.Since(entry)
	r.stats.IO = r.store.Stats()
	r.stats.Elapsed = time.Since(entry)
	r.stats.Phases = []PhaseStat{{Name: "resume", Wall: r.stats.RunGenWall}}
	sp.End()
	o.observeRecovered(len(r.runs))
	o.finishGenerate(r.stats, r.stats.IO)
	return r
}

// Resume reconstructs a durable sort from the manifest a previous
// Manifest-mode pass left on fs and continues run generation from the last
// recoverable boundary. src must re-serve the same input from the start;
// Resume fast-forwards it to the recorded position, so only unprocessed
// records are read in full.
//
// Recovery is prefix-shaped: the longest leading sequence of runs whose
// files are all present and match their committed checksums — and whose
// boundary carry snapshot validates — is adopted; everything after it is
// regenerated deterministically (identical bytes, see the file comment). A
// missing file only shortens the prefix (e.g. a memory-tier spill lost with
// the process); present-but-mismatched data is manifest.ErrChecksum, a
// configuration change is manifest.MismatchError (errors.Is
// manifest.ErrMismatch), and no manifest at all is manifest.ErrNoManifest —
// wrong output is never produced.
func Resume[T any](src stream.Reader[T], fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	entry := time.Now()
	cfg = cfg.withDefaults()
	if err := ops.validate(); err != nil {
		return nil, err
	}
	if err := validateDurable(cfg); err != nil {
		return nil, err
	}
	st, err := manifest.Load(fs, manifest.Name(cfg.Prefix))
	if err != nil {
		return nil, err
	}
	rset, err := durableSetup(fs, cfg, ops)
	if err != nil {
		return nil, err
	}
	if err := checkHeader(st.Header, cfg, ops, rset.em); err != nil {
		return rset.abortSetup(err)
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
		// set without reading the input at all. A crash after commit can
		// still leave half-written merge scratch behind, so sweep spill
		// files the manifest does not reference before adopting — carry
		// snapshots included: nothing restarts from a committed manifest,
		// and a crash between the commit and generateDurable's carry
		// removals would otherwise leave them behind for good.
		ref := referencedNames(st.Runs)
		for _, mr := range st.Runs {
			delete(ref, mr.CarryName)
		}
		names, err := rset.store.Names()
		if err != nil {
			return rset.abortSetup(err)
		}
		for _, name := range names {
			if isSpillName(cfg.Prefix, name) && !ref[name] {
				rset.store.Remove(name)
			}
		}
		return rset.adoptCommitted(st, entry), nil
	}

	// Walk back to a boundary whose carried-state snapshot is available: a
	// boundary that carried nothing needs no snapshot; a missing snapshot
	// (like a missing run file) just shortens the prefix further.
	j := valid
	var carried []T
	for j > 0 {
		mr := st.Runs[j-1]
		if mr.CarryName == "" {
			break
		}
		elems, err := readCarry(rset.store, mr, rset.ops)
		if err == nil {
			carried = elems
			break
		}
		if errors.Is(err, os.ErrNotExist) {
			j--
			carried = nil
			continue
		}
		return rset.abortSetup(err)
	}

	rec := &recovered[T]{
		manRuns: st.Runs[:j],
		carried: carried,
	}
	for _, mr := range rec.manRuns {
		rec.runs = append(rec.runs, toRunioRun(mr))
		rec.policies = append(rec.policies, mr.Policy)
	}
	if j > 0 {
		rec.inputPos = st.Runs[j-1].InputPos
		rec.namerSeq = st.Runs[j-1].NamerSeq
	}

	// Sweep spill files the recovered prefix does not reference: runs past
	// the boundary, stale carries, and half-written files of the crashed
	// pass. They will be regenerated under the same names.
	ref := referencedNames(rec.manRuns)
	names, err := rset.store.Names()
	if err != nil {
		return rset.abortSetup(err)
	}
	for _, name := range names {
		if isSpillName(cfg.Prefix, name) && !ref[name] {
			rset.store.Remove(name)
		}
	}
	return rset.generateDurable(src, rec, entry)
}

// OpenRunSet adopts the run set of a completed (committed) Manifest-mode
// generation pass, typically from another process: every run file is
// validated against the manifest before any of them is trusted. It never
// reads the sort input — an uncommitted manifest is manifest.ErrNotCommitted
// (resume that with Resume, which can regenerate), and a committed manifest
// with missing or mismatched files is an error rather than a partial set.
func OpenRunSet[T any](fs vfs.FS, cfg Config, ops Ops[T]) (*RunSet[T], error) {
	entry := time.Now()
	cfg = cfg.withDefaults()
	if err := ops.validate(); err != nil {
		return nil, err
	}
	if err := validateDurable(cfg); err != nil {
		return nil, err
	}
	st, err := manifest.Load(fs, manifest.Name(cfg.Prefix))
	if err != nil {
		return nil, err
	}
	if !st.Committed {
		return nil, fmt.Errorf("%w: %s", manifest.ErrNotCommitted, manifest.Name(cfg.Prefix))
	}
	rset, err := durableSetup(fs, cfg, ops)
	if err != nil {
		return nil, err
	}
	if err := checkHeader(st.Header, cfg, ops, rset.em); err != nil {
		return rset.abortSetup(err)
	}
	for _, mr := range st.Runs {
		if err := validateRunFiles(rset.store, mr, rset.ops); err != nil {
			return rset.abortSetup(err)
		}
	}
	return rset.adoptCommitted(st, entry), nil
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
