package repro

import (
	"context"
	"fmt"
	"os"

	"repro/internal/codec"
	"repro/internal/extsort"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/vfs"
)

// Source yields elements one at a time; Read returns io.EOF at end of
// stream. Any type with this shape (DatasetReader's among them) satisfies
// it.
type Source[T any] interface {
	Read() (T, error)
}

// Sink consumes elements one at a time.
type Sink[T any] interface {
	Write(T) error
}

// Codec encodes and decodes elements of type T when runs spill to disk.
//
// Append encodes v onto buf and returns the extended slice. Decode reads
// one element from the front of buf, returning it and the number of bytes
// consumed; when buf holds only a prefix of an element it must return
// ErrShortCodec (possibly wrapped), and the storage layer retries with
// more bytes. FixedSize returns the constant encoded size for fixed-width
// codecs and 0 for variable-width ones.
type Codec[T any] interface {
	Append(buf []byte, v T) []byte
	Decode(buf []byte) (v T, n int, err error)
	FixedSize() int
}

// ErrShortCodec is the sentinel a Codec's Decode returns when the buffer
// ends mid-element.
var ErrShortCodec = codec.ErrShort

// Built-in codecs.

// RecordCodec stores Record elements in the library's historical fixed
// 16-byte little-endian layout.
func RecordCodec() Codec[Record] { return codec.Record16{} }

// StringCodec stores strings with a uvarint length prefix, enabling
// variable-length keys.
func StringCodec() Codec[string] { return codec.String{} }

// BytesCodec stores byte slices with a uvarint length prefix.
func BytesCodec() Codec[[]byte] { return codec.Bytes{} }

// Int64Codec stores int64 elements as fixed 8-byte words.
func Int64Codec() Codec[int64] { return codec.Int64{} }

// Uint64Codec stores uint64 elements as fixed 8-byte words.
func Uint64Codec() Codec[uint64] { return codec.Uint64{} }

// Float64Codec stores float64 elements as fixed 8-byte words.
func Float64Codec() Codec[float64] { return codec.Float64{} }

// KeyCodec produces memcmp-ordered normalized key bytes for elements of
// type T, enabling the comparator-free hot path: run batches radix sort on
// cached key prefixes (with no comparator call when the key is total and at
// most 8 bytes) and the merge compares cached key prefixes instead of
// calling the comparator per match. The contract:
//
//	bytes.Compare(AppendKey(nil, a), AppendKey(nil, b)) < 0  ⟹  less(a, b)
//
// and less never orders two elements against their key bytes. Equal key
// bytes imply a tie under the comparator when TotalKey reports true, and
// only then is the comparator never called; under any other codec it
// decides between elements whose keys are equal — in the heaps, the quick
// batches and the merge alike — so a comparator may
// refine the key's order (a Record's Key, then its Aux) and the output is
// still the comparator's. Every keyed decision is pointwise equal to the
// comparator's and the sorted output is byte-identical between the keyed
// and comparator paths.
//
// AppendKey appends v's key bytes onto buf and returns the extended slice.
// FixedKeySize returns the constant key length for fixed-width keys and 0
// for variable-width ones. TotalKey reports whether the key bytes determine
// the element entirely (required before key ties may be left to chance: by
// a comparator-free merge, or a batch sort that does not order its key
// ties). See DESIGN.md §12 for the encodings and fallback rules.
type KeyCodec[T any] interface {
	AppendKey(buf []byte, v T) []byte
	FixedKeySize() int
	TotalKey() bool
}

// Built-in key codecs, matching the natural (ascending) comparator of each
// type. A Sorter over these element types infers the codec automatically;
// the constructors exist for composite keys and for explicitness.

// Int64KeyCodec orders int64 elements ascending: sign-flipped big-endian.
func Int64KeyCodec() KeyCodec[int64] { return codec.KeyInt64{} }

// Uint64KeyCodec orders uint64 elements ascending: big-endian.
func Uint64KeyCodec() KeyCodec[uint64] { return codec.KeyUint64{} }

// Float64KeyCodec orders float64 elements by `<`: IEEE 754 totalOrder with
// -0.0 keyed as +0.0, so the two tie as they do under `<`. NaN is out of
// scope: `<` does not order it, and a sample holding one fails validation.
func Float64KeyCodec() KeyCodec[float64] { return codec.KeyFloat64{} }

// StringKeyCodec orders strings lexicographically: the key is the string.
func StringKeyCodec() KeyCodec[string] { return codec.KeyString{} }

// BytesKeyCodec orders byte slices by bytes.Compare: the key is the slice.
func BytesKeyCodec() KeyCodec[[]byte] { return codec.KeyBytes{} }

// RecordKeyCodec orders Records by their int64 Key field ascending,
// matching the package's Record comparator.
func RecordKeyCodec() KeyCodec[Record] { return codec.KeyRecord16{} }

// Composite key field appenders, for assembling multi-field keys with
// CompositeKeyCodec. Fields append most significant first; variable-width
// fields in non-final positions must use the escaped forms so field
// boundaries compare correctly (0x00 escapes to 0x00 0xFF, fields end with
// the terminator 0x00 0x01).

// AppendKeyInt64 appends an ascending int64 field (sign-flipped big-endian).
func AppendKeyInt64(buf []byte, v int64) []byte { return codec.AppendKeyInt64(buf, v) }

// AppendKeyUint64 appends an ascending uint64 field (big-endian).
func AppendKeyUint64(buf []byte, v uint64) []byte { return codec.AppendKeyUint64(buf, v) }

// AppendKeyFloat64 appends an ascending float64 field (IEEE totalOrder).
func AppendKeyFloat64(buf []byte, v float64) []byte { return codec.AppendKeyFloat64(buf, v) }

// AppendKeyString appends an escaped, terminated string field.
func AppendKeyString(buf []byte, v string) []byte { return codec.AppendKeyStringEscaped(buf, v) }

// AppendKeyBytes appends an escaped, terminated byte-slice field.
func AppendKeyBytes(buf []byte, v []byte) []byte { return codec.AppendKeyBytesEscaped(buf, v) }

// CompositeKeyCodec assembles a KeyCodec from per-field appenders, most
// significant field first. fixed is the total key width when every field is
// fixed-width (0 otherwise); total marks keys that determine the element
// entirely. The contract is the caller's: the concatenated fields must
// order exactly as the Sorter's comparator does (New's sampled validation
// rejects codecs that disagree on observed data).
func CompositeKeyCodec[T any](fixed int, total bool, fields ...func(buf []byte, v T) []byte) (KeyCodec[T], error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("repro: CompositeKeyCodec requires at least one field")
	}
	return codec.Composite[T]{Fields: fields, Fixed: fixed, Total: total}, nil
}

// sorterConfig accumulates options before New freezes them into a Sorter.
// The codec and key hooks are stashed untyped so that the Option type stays
// non-generic (ergonomic at call sites); New type-checks them against T.
type sorterConfig struct {
	cfg      Config
	codec    any
	key      any
	keyCodec any
	noKeys   bool
}

// Option configures a Sorter under construction. Options are shared across
// element types; the type-specific ones (WithCodec, WithKey) verify at New
// time that they match the Sorter's element type.
type Option func(*sorterConfig) error

// WithConfig replaces the whole configuration in one call; later options
// still apply on top.
func WithConfig(cfg Config) Option {
	return func(s *sorterConfig) error { s.cfg = cfg; return nil }
}

// WithPolicy selects the run generator by name: "2wrs", "rs",
// "alternating" (also "alt"), "quick" (also "lss"), or "auto" (the
// default), which probes the order structure of a memory-sized input prefix
// and runs over the whole input the generator its cost table prices
// cheapest. Unknown
// names fail at New with an error listing the valid policies (see
// Policies).
func WithPolicy(name string) Option {
	return func(s *sorterConfig) error { s.cfg.Policy = name; return nil }
}

// WithMemoryRecords sets the memory budget, in elements, shared by run
// generation and (converted to bytes) the merge buffers.
func WithMemoryRecords(n int) Option {
	return func(s *sorterConfig) error { s.cfg.MemoryRecords = n; return nil }
}

// WithFanIn sets the merge fan-in, which every merge then keeps. Without it
// a sort merges all its runs in one pass when its memory budget gives each
// piece of them a 4 KiB page, and otherwise as wide as the budget feeds at a
// 16 KiB block per input, never narrower than the paper's optimum of 10.
func WithFanIn(n int) Option {
	return func(s *sorterConfig) error { s.cfg.FanIn = n; return nil }
}

// WithBufferSetup selects which auxiliary 2WRS buffers exist.
func WithBufferSetup(setup BufferSetup) Option {
	return func(s *sorterConfig) error { s.cfg.Setup = setup; return nil }
}

// WithBufferFraction sets the fraction of memory dedicated to the auxiliary
// buffers, in (0, 0.5].
func WithBufferFraction(frac float64) Option {
	return func(s *sorterConfig) error { s.cfg.BufferFraction = frac; return nil }
}

// WithHeuristics selects the 2WRS insertion and release heuristics (§4.2).
func WithHeuristics(in InputHeuristic, out OutputHeuristic) Option {
	return func(s *sorterConfig) error { s.cfg.Input, s.cfg.Output = in, out; return nil }
}

// WithTempDir stores temporary runs in the given directory on the real file
// system; the default keeps them in process memory.
func WithTempDir(dir string) Option {
	return func(s *sorterConfig) error { s.cfg.TempDir = dir; return nil }
}

// WithParallelism bounds the sort's concurrency: up to this many run
// generators compute at once — a budget of more than 2^15 elements runs
// ⌈budget/2^15⌉ of them side by side, each over its share of the input and
// of the memory — up to this many operations of the merge plan whose inputs
// are complete run at once, and in-memory selection builds its heaps on up
// to this many goroutines. 1 forces the fully sequential behaviour (the
// paper's cost model); 0, the default, uses GOMAXPROCS. How many generators
// there are is set by the budget alone, so the run files, the merge tree
// and the sorted output are identical at every setting.
func WithParallelism(n int) Option {
	return func(s *sorterConfig) error { s.cfg.Parallelism = n; return nil }
}

// WithShards does nothing: it ignores its argument. It once split the sort
// into range-partitioned shards; run generation now puts the cores to work
// through lanes (WithParallelism), which sorted faster.
//
// Deprecated: drop the option.
func WithShards(int) Option {
	return func(*sorterConfig) error { return nil }
}

// WithSeed seeds the randomised heuristics, making a sort deterministic.
func WithSeed(seed int64) Option {
	return func(s *sorterConfig) error { s.cfg.Seed = seed; return nil }
}

// WithCompression does nothing: it ignores its argument. Spill files have
// one layout, raw and checked block by block (see the package doc's Spill
// storage), where it once chose between that layout unchecked and framed
// ("none") or compressed ("flate") blocks.
//
// Deprecated: there is nothing left to choose; drop the option.
func WithCompression(string) Option {
	return func(*sorterConfig) error { return nil }
}

// WithManifest makes the sorter's sorts durable: every completed run is
// recorded in a CRC-guarded manifest next to the spill files, and a sort
// that died mid-generation — process kill, cancelled context, failed source
// — can be finished by Sorter.Resume without regenerating the runs that
// already reached storage. It works under every policy, the default auto
// included: a resume replays auto's one decision from the same input
// prefix. See DESIGN.md §14 for the recovery rules. With no TempDir
// the Sorter keeps one in-process file system for all its sorts (rather
// than one per Sort call) so Resume can see what a failed Sort left behind;
// with a TempDir, resumability extends across process restarts.
func WithManifest() Option {
	return func(s *sorterConfig) error { s.cfg.Manifest = true; return nil }
}

// WithCodec supplies the codec used to spill runs to disk. Without it, New
// infers a built-in codec for Record, string, []byte, int64, uint64 and
// float64 element types and fails for anything else.
func WithCodec[T any](c Codec[T]) Option {
	return func(s *sorterConfig) error {
		if c == nil {
			return fmt.Errorf("repro: WithCodec(nil)")
		}
		s.codec = c
		return nil
	}
}

// WithKey supplies a numeric projection of elements onto the real line,
// enabling the paper's numeric 2WRS heuristics (Mean division point,
// victim-gap split, MinDistance output) for custom element types. Without
// it, New infers a projection for numeric element types and Record;
// comparator-only types use order-based fallbacks.
func WithKey[T any](key func(T) float64) Option {
	return func(s *sorterConfig) error {
		s.key = key
		return nil
	}
}

// WithKeyCodec supplies normalized key bytes for the element type, turning
// on the comparator-free hot path (see KeyCodec for the contract and
// effect). Without it, New infers a built-in key codec for Record, string,
// []byte, int64, uint64 and float64 element types; other types sort through
// the comparator with Stats.Keyed reporting false. An explicitly supplied
// codec that disagrees with the comparator on a sampled prefix of the
// input fails the sort with an error — an inferred one falls back to the
// comparator silently (e.g. a descending comparator over int64 elements).
// A codec of either kind that passes the sample but disagrees with the
// comparator later in the input (a case-insensitive comparator over
// strings) fails the sort with an out-of-order error naming WithoutKeys,
// the option that sorts such input: every sort checks its output against
// the comparator, at one comparator call per element.
// The sampled check is stricter than the contract — on the sample, less
// must hold exactly where the key bytes order strictly — so a comparator
// that refines key ties passes it when the sampled keys are distinct;
// past the sample, key ties under a codec that is not total go to the
// comparator. Within a batch the generator sorts (a quick load, 2WRS's
// victim buffer), elements the comparator ties keep their input order.
func WithKeyCodec[T any](kc KeyCodec[T]) Option {
	return func(s *sorterConfig) error {
		if kc == nil {
			return fmt.Errorf("repro: WithKeyCodec(nil)")
		}
		s.keyCodec = kc
		s.noKeys = false
		return nil
	}
}

// WithoutKeys disables the keyed hot path even for element types whose key
// codec New would infer: every comparison goes through the comparator. The
// sorted output is byte-identical either way — this exists for ablation
// measurements and as a hedge against a misbehaving codec. Batch sorts keep
// comparator ties in input order here too, as keyed ones do.
func WithoutKeys() Option {
	return func(s *sorterConfig) error {
		s.noKeys = true
		s.keyCodec = nil
		return nil
	}
}

// builtin is what New infers for an element type it knows when no option
// says otherwise: the spill codec; the key codec under the type's natural
// (ascending) order; and, for Record and the numeric types, the projection
// onto the real line the paper's numeric heuristics want. The fields are
// untyped for the same reason sorterConfig's are; resolve asserts them to T.
// An inferred key codec is validated against the actual comparator on a
// sample of the input at sort time and dropped silently on disagreement, so
// inferring one for, say, a descending int64 sort is safe; a disagreement
// past the sample fails the sort (WithKeyCodec).
type builtin struct{ codec, keyCodec, key any }

// builtinFor is the one table of the element types New knows; the zero
// builtin means T is opaque: it needs WithCodec and sorts comparator-only.
func builtinFor[T any]() builtin {
	var zero T
	switch any(zero).(type) {
	case Record:
		return builtin{codec.Record16{}, codec.KeyRecord16{}, record.Key}
	case string:
		return builtin{codec.String{}, codec.KeyString{}, nil}
	case []byte:
		return builtin{codec.Bytes{}, codec.KeyBytes{}, nil}
	case int64:
		return builtin{codec.Int64{}, codec.KeyInt64{}, func(v int64) float64 { return float64(v) }}
	case uint64:
		return builtin{codec.Uint64{}, codec.KeyUint64{}, func(v uint64) float64 { return float64(v) }}
	case float64:
		return builtin{codec.Float64{}, codec.KeyFloat64{}, func(v float64) float64 { return v }}
	}
	return builtin{}
}

// resolve types one of the hooks the options stash untyped: the value the
// option gave, else the built-in default, asserted to the hook type V for
// element type T. Neither present is the nil V; an option of the wrong type
// is the error naming the option and what it must do for T.
func resolve[V, T any](given, inferred any, option, verb string) (v V, err error) {
	if given == nil {
		given = inferred
	}
	if given == nil {
		return v, nil
	}
	v, ok := given.(V)
	if !ok {
		var zero T
		err = fmt.Errorf("repro: %s got %T, which does not %s element type %T", option, given, verb, zero)
	}
	return v, err
}

// Sorter is a reusable, configured external sorter for elements of type T.
// A Sorter is immutable after New and safe to use for several consecutive
// sorts (concurrent Sort calls each get their own temporary namespace only
// when TempDir is unset; with a shared TempDir, run them sequentially).
type Sorter[T any] struct {
	cfg Config
	// ops is the element-type bundle every entry point hands the driver —
	// Sort and Resume as much as the operator layer — so all of them run
	// keyed, or refuse a mismatched explicit key codec, alike.
	ops extsort.Ops[T]
	fs  vfs.FS // stable spill FS for durable sorters; nil otherwise
	// pool recycles the spill path's blocks across the sorter's sorts, so
	// each sort after the first finds its blocks idle.
	pool *storage.Pool
}

// New builds a Sorter ordering elements with less. Options supply the
// memory budget, run-generation policy, heuristics, codec and numeric key
// projection; the defaults are DefaultConfig(2^20): the "auto" policy,
// which picks, once, the run generator its cost table prices cheapest for
// the input; WithPolicy pins one generator, and
// a WithConfig configuration carries its own Policy. New validates the
// resulting configuration and reports descriptive errors for nonsense
// values.
func New[T any](less func(a, b T) bool, opts ...Option) (*Sorter[T], error) {
	if less == nil {
		return nil, fmt.Errorf("repro: New requires a comparator")
	}
	defaults := DefaultConfig(1 << 20)
	sc := sorterConfig{cfg: defaults}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&sc); err != nil {
			return nil, err
		}
	}
	// A zero BufferFraction — a hand-built Config that never set it — means
	// the paper's default here, as it does one layer down.
	if sc.cfg.BufferFraction == 0 {
		sc.cfg.BufferFraction = defaults.BufferFraction
	}
	if err := sc.cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Sorter[T]{cfg: sc.cfg, pool: &storage.Pool{}}
	s.ops = extsort.Ops[T]{Less: less, KeyedExplicit: sc.keyCodec != nil, Scratch: new(codec.Scratch[T])}
	def := builtinFor[T]()
	var err error
	if s.ops.Codec, err = resolve[codec.Codec[T], T](sc.codec, def.codec, "WithCodec", "encode"); err == nil && s.ops.Codec == nil {
		var zero T
		err = fmt.Errorf("repro: no built-in codec for element type %T; pass WithCodec", zero)
	}
	if err == nil {
		s.ops.Key, err = resolve[func(T) float64, T](sc.key, def.key, "WithKey", "project")
	}
	if err == nil && !sc.noKeys {
		s.ops.KeyCodec, err = resolve[codec.KeyCodec[T], T](sc.keyCodec, def.keyCodec, "WithKeyCodec", "key")
	}
	if err == nil && (s.cfg.Manifest || s.cfg.Resume) {
		// Durable sorts need a file system that outlives one Sort call, or
		// there would be nothing for Resume to pick up.
		s.fs, err = s.cfg.filesystem()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the sorter's frozen configuration, a zero FanIn — which each
// merge resolves against its runs — read as the base width. Passing that back
// explicitly pins every merge to it.
func (s *Sorter[T]) Config() Config {
	c := s.cfg
	if c.FanIn == 0 {
		c.FanIn = c.toInternal().MergeFanIn(s.ops.ElementBytes())
	}
	return c
}

// ctxReader is a call's source below the public boundary: the caller's
// Source adapted to the batch protocol once (source), the context checked at
// every batch boundary — a batch never exceeds stream.DefaultBatchLen
// elements — and the source's Remaining-length hint forwarded.
type ctxReader[T any] struct {
	ctx context.Context
	br  stream.BatchReader[T]
}

// source is where a caller's Source crosses the public boundary; everything
// a call does with its input afterwards reads the returned batches.
func source[T any](o *op, src Source[T]) stream.BatchReader[T] {
	return &ctxReader[T]{ctx: o.ctx, br: stream.AsBatchReader[T](src)}
}

// ReadBatch checks the context once per batch, then delegates.
func (r *ctxReader[T]) ReadBatch(dst []T) (int, error) {
	if err := r.ctx.Err(); err != nil {
		return 0, err
	}
	return r.br.ReadBatch(dst)
}

// Remaining forwards the wrapped source's length hint; -1 means unknown.
func (r *ctxReader[T]) Remaining() int { return stream.RemainingOf(r.br) }

// ctxWriter is a call's sink below the public boundary: the caller's Sink
// adapted to the batch protocol once (sink) and the context checked at every
// batch.
type ctxWriter[T any] struct {
	ctx context.Context
	bw  stream.BatchWriter[T]
}

// sink is where a caller's Sink crosses the public boundary; everything a
// call writes to it afterwards goes in batches.
func sink[T any](o *op, dst Sink[T]) *ctxWriter[T] {
	return &ctxWriter[T]{ctx: o.ctx, bw: stream.AsBatchWriter[T](dst)}
}

// Write is WriteBatch of one element. It makes the writer a stream.Writer
// for RunSet.Merge, which finds WriteBatch and never calls it.
func (w *ctxWriter[T]) Write(v T) error { return w.WriteBatch([]T{v}) }

// WriteBatch checks the context once per batch, then delegates.
func (w *ctxWriter[T]) WriteBatch(src []T) error {
	if err := w.ctx.Err(); err != nil {
		return err
	}
	return w.bw.WriteBatch(src)
}

// filesystem resolves the configured run storage.
func (c Config) filesystem() (vfs.FS, error) {
	if c.TempDir == "" {
		return vfs.NewMemFS(), nil
	}
	if err := os.MkdirAll(c.TempDir, 0o755); err != nil {
		return nil, fmt.Errorf("repro: temp dir: %w", err)
	}
	return vfs.NewOSFS(c.TempDir), nil
}

// Sort reads every element from src, sorts them externally within the
// configured memory budget, and writes the ascending result to dst. The
// context is honoured between batches in both phases: a cancelled context
// aborts the sort promptly with ctx.Err().
func (s *Sorter[T]) Sort(ctx context.Context, src Source[T], dst Sink[T]) (Stats, error) {
	return s.sort(ctx, src, dst, false)
}

// Resume finishes a durable sort that a previous Sort (in this process or,
// with a TempDir, in an earlier one) left interrupted: completed runs are
// validated against the manifest and reused, and generation continues from
// the last committed run boundary. src must re-serve the original input
// from the start — Resume replays generation over what the committed runs
// consumed, writing nothing, and fails with ErrRunChecksum when a
// regenerated run is not the committed one. The output is byte-identical
// to what the uninterrupted sort would have produced; Stats.RunsRecovered
// reports how many runs were reused. When no manifest exists (nothing to resume, or a
// crash predated the first run) Resume simply runs a fresh durable sort. A
// manifest written under a different codec, spill layout or generation
// configuration fails with ErrManifestMismatch rather than mixing
// incompatible state.
func (s *Sorter[T]) Resume(ctx context.Context, src Source[T], dst Sink[T]) (Stats, error) {
	if !s.cfg.Manifest && !s.cfg.Resume {
		return Stats{}, fmt.Errorf("repro: Resume requires a Sorter built with WithManifest")
	}
	return s.sort(ctx, src, dst, true)
}

// generate is the one way into the sorter: every entry point — Sort and
// Resume, which materialise the result, and the operators and selections,
// which stream it — resolves the spill file system and converts the
// configuration here, and reaches run generation through it, over the
// call's context-checked batch view of its source (source). prefix namespaces the call's temporary
// files, so concurrent phases — the two sides of a MergeJoin sharing a
// TempDir — cannot collide. The caller owns the returned run set: Merge it,
// or OpenMerged and Close the stream; either consumes the run files and,
// with them, a durable sort's manifest.
func (s *Sorter[T]) generate(o *op, src stream.BatchReader[T], prefix string, resume bool) (*extsort.RunSet[T], error) {
	fs := s.fs
	if fs == nil {
		var err error
		if fs, err = s.cfg.filesystem(); err != nil {
			return nil, err
		}
	}
	icfg := s.cfg.toInternal()
	icfg.Cancel = o.ctx.Err
	icfg.Prefix = prefix
	icfg.Resume = icfg.Resume || resume
	icfg.Pool = s.pool
	return extsort.GenerateRunsBatch[T](src, fs, icfg, s.ops)
}

// sort is the materialising caller of generate: the run set merged into
// dst. A failure leaves under WithManifest the state Resume continues from,
// otherwise nothing.
func (s *Sorter[T]) sort(ctx context.Context, src Source[T], dst Sink[T], resume bool) (stats Stats, err error) {
	o := startOp(ctx, nil, "") // no root span: the driver traces and times a sort itself
	defer o.finish(nil, nil, &err)
	rset, err := s.generate(o, source(o, src), "", resume)
	if err != nil {
		return Stats{}, err
	}
	return rset.Merge(sink(o, dst))
}

// SortSlice sorts a slice through the external-sort machinery and returns a
// new sorted slice; a convenience for small inputs, tests and examples. The
// output slice is pre-sized to the input length.
func (s *Sorter[T]) SortSlice(ctx context.Context, vals []T) ([]T, Stats, error) {
	out := stream.SliceWriter[T]{Vals: make([]T, 0, len(vals))}
	stats, err := s.Sort(ctx, stream.NewSliceReader(vals), &out)
	return out.Vals, stats, err
}
