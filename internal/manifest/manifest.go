// Package manifest persists the state of a run-generation pass so a
// crashed or preempted external sort can resume instead of regenerating
// every run (DESIGN.md §14).
//
// A manifest is a text file of CRC-guarded JSON lines: a header record
// describing the sort's identity (codec fingerprint, storage framing,
// generation configuration), one run record appended — and durable —
// at every run boundary, and a final commit record once generation
// completes. A run record identifies its run — the segments with their
// content checksums, the policy that wrote it, the input position — and
// holds no generator state: a resume replays the generator from the first
// input record and checks each regenerated run against its record. Each
// line is independently checksummed:
//
//	<8 hex digits of CRC32(payload)> <payload JSON>\n
//
// so a torn tail (the crash hit mid-append) is detected and truncated to
// the last intact record rather than misread. The loader is deliberately
// paranoid: the first malformed, misnumbered or duplicated record ends the
// readable prefix, and everything after it is ignored. Wrong answers are
// never produced from a damaged manifest — at worst, recovery restarts
// from an earlier boundary.
package manifest

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/runio"
	"repro/internal/vfs"
)

// Version is the manifest format version this package reads and writes.
// Version 4 drops the generator snapshot: a run record no longer names a
// carry file or state words, since a resume replays the generator instead
// of restoring it, and the commit record counts the policy switches.
// Version 3 placed the files: a sort keeps its spill files as extents of
// one arena file (vfs.Arena), and every run record lists the size and
// extents of each file it names (Run.Files), so a resume can reopen the
// arena. An older manifest is the scratch state of an interrupted sort, not
// an archive: it is refused like any unknown version (ErrCorrupt).
const Version = 4

// Suffix is appended to a sort's file prefix to name its manifest.
const Suffix = ".manifest"

// Name returns the manifest file name for a sort with the given spill-file
// prefix.
func Name(prefix string) string { return prefix + Suffix }

// ErrNoManifest reports that no manifest file exists for the sort.
var ErrNoManifest = errors.New("manifest: no manifest")

// ErrCorrupt reports a manifest whose header record is unreadable: the
// file exists but carries no usable state at all.
var ErrCorrupt = errors.New("manifest: corrupt manifest")

// ErrNoHeader is the ErrCorrupt case where no header record could be read
// at all — typically a manifest truncated by a crash during its very first
// write. It matches ErrCorrupt via errors.Is; resume-or-fresh callers
// additionally match it to treat such a file as "no recoverable state",
// since nothing in a header-less manifest can ever be adopted.
var ErrNoHeader = fmt.Errorf("%w: no readable header record", ErrCorrupt)

// ErrChecksum reports spill data that does not match the checksum its
// manifest record committed — genuine corruption, never resumed past.
var ErrChecksum = errors.New("manifest: run data checksum mismatch")

// ErrMismatch is the sentinel wrapped by MismatchError, for errors.Is.
var ErrMismatch = errors.New("manifest: configuration mismatch")

// MismatchError reports a manifest written under a configuration
// incompatible with the resuming invocation: resuming would regenerate
// different runs (or misdecode the existing ones), so it is refused.
type MismatchError struct {
	// Field names the mismatched configuration axis (e.g. "codec",
	// "compression", "generation").
	Field string
	// Want is the value recorded in the manifest.
	Want string
	// Got is the value of the resuming invocation.
	Got string
}

// Error formats the mismatch with both values.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("manifest: %s mismatch: manifest was written with %q, invocation uses %q", e.Field, e.Want, e.Got)
}

// Unwrap ties MismatchError to the ErrMismatch sentinel.
func (e *MismatchError) Unwrap() error { return ErrMismatch }

// Header identifies the sort a manifest belongs to. Every field must match
// the resuming invocation exactly (MismatchError otherwise), except
// KeyCodec: keyed and comparator sorts produce byte-identical runs, so a
// key-codec difference is recorded but tolerated.
type Header struct {
	// Version is the manifest format version.
	Version int `json:"v"`
	// Prefix is the sort's spill-file prefix.
	Prefix string `json:"prefix"`
	// Codec fingerprints the element codec (storage layout identity).
	Codec string `json:"codec"`
	// KeyCodec fingerprints the normalized-key codec, empty when the sort
	// ran comparator-only. Informational: see the type comment.
	KeyCodec string `json:"key_codec,omitempty"`
	// Compression is the spill storage framing name ("raw", "none",
	// "flate").
	Compression string `json:"compression"`
	// Generation fingerprints every knob that shapes the deterministic
	// run sequence: policy, memory budget, page layout, 2WRS parameters.
	Generation string `json:"generation"`
}

// Segment is a run segment as the manifest records it: runio's own
// description, content checksum included. The checksum is the 64-bit sum of
// CRC-32C(encoded element) over the segment's elements, computable online
// by both ascending and descending writers and re-computable by an
// ascending validation read, so one definition covers every layout.
type Segment = runio.Segment

// Run is one durable run boundary: what identifies the run — its file shape
// and content checksums, the policy that wrote it — and the input position
// and file-name sequence there. A resume regenerates the run by replay and
// requires it to match.
type Run struct {
	// Seq is the 1-based run index; records must arrive in sequence.
	Seq int `json:"seq"`
	// Records is the run's element count.
	Records int64 `json:"records"`
	// Concatenable mirrors runio.Run.Concatenable.
	Concatenable bool `json:"concat"`
	// Policy names the generator that produced the run.
	Policy string `json:"policy"`
	// Segments lists the run's physical pieces in ascending order.
	Segments []Segment `json:"segments"`
	// CarryName named format 3's generator snapshot file. Nothing writes
	// it, or the two fields after it, any more; they stay declared for
	// callers that still build records with them.
	CarryName string `json:"carry,omitempty"`
	// CarryRecords was the snapshot's element count; never written.
	CarryRecords int64 `json:"carry_records,omitempty"`
	// CarrySum was the snapshot's checksum; never written.
	CarrySum uint64 `json:"carry_sum,omitempty"`
	// InputPos is the number of input elements the generator had read at
	// this boundary, read-ahead included. A resume requires the source to
	// re-serve at least that many.
	InputPos int64 `json:"input_pos"`
	// NamerSeq is the spill Namer's sequence counter at this boundary.
	NamerSeq int `json:"namer_seq"`
	// Files places every file of the run's non-empty segments in the sort's
	// spill arena: its size and extents. A resume adopts exactly the files
	// of the records it keeps.
	Files []vfs.ArenaFile `json:"files,omitempty"`
}

// Commit marks a completed generation pass.
type Commit struct {
	// Runs is the total run count, which must equal the run records seen.
	Runs int `json:"runs"`
	// Records is the total input element count.
	Records int64 `json:"records"`
	// Switches counts the generator changes the pass made (the auto
	// policy's; 0 under a fixed one), for callers that adopt the committed
	// runs without reading the input.
	Switches int `json:"switches,omitempty"`
}

// State is everything a loader recovered from a manifest file.
type State struct {
	// Header is the sort's identity record.
	Header Header
	// Runs lists the durable run boundaries in order.
	Runs []Run
	// Committed reports that a valid commit record closed the manifest.
	Committed bool
	// Commit is the commit record when Committed.
	Commit Commit
	// TornBytes counts trailing bytes discarded as a torn or damaged tail
	// (0 when the manifest ended cleanly).
	TornBytes int64
}

// line is the wire envelope of one manifest record: exactly one of the
// three payloads is set, tagged by T.
type line struct {
	T string  `json:"t"` // "h", "r" or "c"
	H *Header `json:"h,omitempty"`
	R *Run    `json:"r,omitempty"`
	C *Commit `json:"c,omitempty"`
}

// appendRecord encodes one CRC-guarded manifest line onto buf.
func appendRecord(buf []byte, l line) ([]byte, error) {
	payload, err := json.Marshal(l)
	if err != nil {
		return buf, err
	}
	buf = fmt.Appendf(buf, "%08x ", crc32.ChecksumIEEE(payload))
	buf = append(buf, payload...)
	return append(buf, '\n'), nil
}

// Writer appends CRC-guarded records to a manifest file. Every append is
// written through to the file system before returning, so a record that
// AppendRun reported durable survives any later crash.
type Writer struct {
	f      vfs.File
	off    int64
	runs   int
	closed bool
}

// Create creates (truncating) the manifest file on fs and writes the
// header record.
func Create(fs vfs.FS, name string, h Header) (*Writer, error) {
	return Rewrite(fs, name, h, nil)
}

// Rewrite creates (truncating) the manifest file and seeds it with the
// header plus an already-recovered prefix of run records, renumbered from
// 1. Resume uses it to drop boundaries past the recovered prefix and to
// cut away a torn tail in one atomic-enough step: the new file is complete
// before any new boundary is appended.
func Rewrite(fs vfs.FS, name string, h Header, runs []Run) (*Writer, error) {
	h.Version = Version
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f}
	buf, err := appendRecord(nil, line{T: "h", H: &h})
	if err != nil {
		f.Close()
		return nil, err
	}
	for i := range runs {
		r := runs[i]
		r.Seq = i + 1
		if buf, err = appendRecord(buf, line{T: "r", R: &r}); err != nil {
			f.Close()
			return nil, err
		}
		w.runs++
	}
	if err := w.write(buf); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *Writer) write(buf []byte) error {
	if _, err := w.f.WriteAt(buf, w.off); err != nil {
		return err
	}
	w.off += int64(len(buf))
	return nil
}

// AppendRun makes one run boundary durable. The record's Seq is assigned
// by the writer.
func (w *Writer) AppendRun(r Run) error {
	if w.closed {
		return fmt.Errorf("manifest: append on closed writer")
	}
	w.runs++
	r.Seq = w.runs
	buf, err := appendRecord(nil, line{T: "r", R: &r})
	if err != nil {
		return err
	}
	return w.write(buf)
}

// Commit closes generation: it writes the commit record stamped with the
// writer's run count.
func (w *Writer) Commit(records int64, switches int) error {
	if w.closed {
		return fmt.Errorf("manifest: commit on closed writer")
	}
	c := Commit{Runs: w.runs, Records: records, Switches: switches}
	buf, err := appendRecord(nil, line{T: "c", C: &c})
	if err != nil {
		return err
	}
	return w.write(buf)
}

// Runs returns the number of run records written so far.
func (w *Writer) Runs() int { return w.runs }

// Close releases the manifest file handle; the records already appended
// stay durable.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}

// crcHexLen is the fixed width of the checksum prefix on every line.
const crcHexLen = 8

// parseLine decodes one CRC-guarded line (without its trailing newline).
func parseLine(b []byte) (line, error) {
	var l line
	if len(b) < crcHexLen+2 || b[crcHexLen] != ' ' {
		return l, fmt.Errorf("manifest: short or malformed record line")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(b[:crcHexLen]), "%08x", &want); err != nil {
		return l, fmt.Errorf("manifest: bad record checksum field: %w", err)
	}
	payload := b[crcHexLen+1:]
	if crc32.ChecksumIEEE(payload) != want {
		return l, fmt.Errorf("manifest: record checksum mismatch")
	}
	if err := json.Unmarshal(payload, &l); err != nil {
		return l, fmt.Errorf("manifest: record JSON: %w", err)
	}
	return l, nil
}

// Load reads a manifest file and returns every record of its intact
// prefix. A missing file is ErrNoManifest; an unreadable header is
// ErrCorrupt; a damaged or torn tail is not an error — parsing stops at
// the first bad, out-of-sequence or duplicated record and State.TornBytes
// reports how much was discarded. Records after a commit are ignored.
func Load(fs vfs.FS, name string) (*State, error) {
	f, err := fs.Open(name)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrNoManifest, name)
		}
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		return nil, err
	}
	return Decode(data)
}

// Decode parses manifest bytes per the Load contract. It is split out so
// the fuzzer can drive the parser without a file system.
func Decode(data []byte) (*State, error) {
	st := &State{}
	pos := 0
	sawHeader := false
	for pos < len(data) {
		nl := -1
		for i := pos; i < len(data); i++ {
			if data[i] == '\n' {
				nl = i
				break
			}
		}
		if nl < 0 {
			break // torn tail: no newline ever made it to storage
		}
		l, err := parseLine(data[pos:nl])
		if err != nil {
			break // damaged record: the intact prefix ends here
		}
		switch {
		case l.T == "h" && l.H != nil:
			if sawHeader {
				return st.torn(data, pos), nil // duplicated header: stop
			}
			if l.H.Version != Version {
				return nil, fmt.Errorf("%w: unsupported version %d (want %d)", ErrCorrupt, l.H.Version, Version)
			}
			st.Header = *l.H
			sawHeader = true
		case !sawHeader:
			// Records before the header: the file is not a manifest.
			return nil, fmt.Errorf("%w: first record is not a header", ErrCorrupt)
		case l.T == "r" && l.R != nil:
			if st.Committed || l.R.Seq != len(st.Runs)+1 {
				return st.torn(data, pos), nil // duplicate or out-of-sequence
			}
			st.Runs = append(st.Runs, *l.R)
		case l.T == "c" && l.C != nil:
			if st.Committed || l.C.Runs != len(st.Runs) {
				return st.torn(data, pos), nil // commit disagrees with the runs seen
			}
			st.Committed, st.Commit = true, *l.C
		default:
			return st.torn(data, pos), nil // unknown record type
		}
		pos = nl + 1
	}
	if !sawHeader {
		return nil, ErrNoHeader
	}
	st.TornBytes += int64(len(data) - pos)
	return st, nil
}

// torn finalizes a state whose readable prefix ends at pos.
func (st *State) torn(data []byte, pos int) *State {
	st.TornBytes = int64(len(data) - pos)
	return st
}
