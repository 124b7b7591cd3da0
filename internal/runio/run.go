package runio

import (
	"errors"
	"os"
	"strconv"

	"repro/internal/codec"
	"repro/internal/storage"
)

// Segment is one physical piece of a logical run: either a forward file or a
// backward file chain, always read in ascending order.
type Segment struct {
	// Name is the file name (forward) or the chain base name (backward).
	Name string `json:"name"`
	// Records is the number of elements stored in the segment.
	Records int64 `json:"records"`
	// Backward marks the Appendix A decreasing-stream layout.
	Backward bool `json:"backward,omitempty"`
	// Files is the chain length for backward segments (0 or 1 file chains
	// are legal); it is ignored for forward segments.
	Files int `json:"files,omitempty"`
	// Sum is the segment's order-insensitive content checksum (ContentSum),
	// kept when the writer's emitter has Checksums on; 0 otherwise.
	Sum uint64 `json:"sum"`
}

// EachFile calls visit for each physical file of the segment in ascending
// read order: the forward file, or the chain files — "base.N", N the index
// in creation order — from the last created to the first. Everything that
// opens, removes or accounts for a segment's files enumerates them here.
func (s Segment) EachFile(visit func(name string, index int)) {
	if !s.Backward {
		visit(s.Name, 0)
		return
	}
	for i := s.Files - 1; i >= 0; i-- {
		visit(backwardFileName(s.Name, i), i)
	}
}

// appendFiles appends the segment's files to dst as the reader meets them.
// counted makes the reader hold the segment to its record count when the
// last of them is drained.
func (s Segment) appendFiles(dst []spillFile, counted bool) []spillFile {
	var records int64
	if counted {
		records = s.Records
	}
	s.EachFile(func(name string, i int) {
		dst = append(dst, spillFile{name: name, paged: s.Backward, index: i, joins: s.Backward && i < s.Files-1, seg: s.Name, records: records})
	})
	return dst
}

// OpenSegment returns an ascending reader over the segment with the given
// buffer size in bytes, decoding elements with c. A forward segment's file
// is opened here, so a missing one fails this call; a chain's files are
// opened as the read reaches them, and a missing or corrupt one fails that
// read. The reader yields whatever the files hold: the caller counts.
func OpenSegment[T any](st storage.Backend, s Segment, bufBytes int, c codec.Codec[T]) (*Reader[T], error) {
	return openSegment(st, s, bufBytes, c, false)
}

// openSegment is OpenSegment, with the reader holding the segment to its
// record count when counted.
func openSegment[T any](st storage.Backend, s Segment, bufBytes int, c codec.Codec[T], counted bool) (*Reader[T], error) {
	r := newReader(st, s.appendFiles(nil, counted), bufBytes, c)
	if !s.Backward {
		if err := r.openNext(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Remove deletes every file of the segment, carrying on past a file that
// fails to go — or is already gone — and returns the first error that is
// not os.ErrNotExist.
func (s Segment) Remove(st storage.Backend) (first error) {
	s.EachFile(func(name string, _ int) {
		if err := st.Remove(name); err != nil && first == nil && !errors.Is(err, os.ErrNotExist) {
			first = err
		}
	})
	return first
}

// Run is a logical sorted run: the ascending concatenation of its segments.
// A run produced by RS has one forward segment; a run produced by 2WRS has
// up to four segments (streams 4, 3, 2, 1 in that order, the backward ones
// read ascending). Run is pure metadata; OpenRun attaches the codec and
// comparator needed to read it.
type Run struct {
	// Segments lists the run's pieces in ascending read order.
	Segments []Segment
	// Records is the total element count across segments.
	Records int64
	// Concatenable reports that the segments' key ranges are pairwise
	// disjoint in segment order, so reading them back to back yields one
	// sorted sequence. 2WRS guarantees each stream is sorted but the four
	// ranges can overlap slightly when an insertion heuristic misjudges
	// the division point; OpenRun opens such a run as one sorted piece per
	// segment, for the merge to interleave.
	Concatenable bool
}

// SingleRun describes a run stored as one segment.
func SingleRun(seg Segment) Run {
	return Run{Segments: []Segment{seg}, Records: seg.Records, Concatenable: true}
}

// Pieces returns how many sorted pieces OpenRun opens the run as: one per
// non-empty segment when the segments' ranges overlap, and one otherwise.
func (r Run) Pieces() int {
	if r.Concatenable {
		return 1
	}
	n := 0
	for _, s := range r.Segments {
		if s.Records > 0 {
			n++
		}
	}
	return max(n, 1)
}

// OpenRun opens the run as its sorted pieces within the given buffer budget
// in bytes: the readers whose merge — a plain concatenation when there is one
// — is the run in ascending order. A concatenable run is one piece, a Reader
// over the files of all its non-empty segments (one open file at a time, so
// the whole budget buffers it); a run with overlapping stream ranges is one
// piece per non-empty segment, the budget split evenly among them and floored
// at a page each. Because overlaps are narrow, a merge of the pieces still
// drains mostly one file at a time and stays nearly sequential on disk. A
// piece holds every segment it reads to the segment's record count: one that
// ends short (or long) fails the read with an error matching
// storage.ErrCorrupt naming it. On an error every piece already opened is
// closed.
func OpenRun[T any](st storage.Backend, r Run, bufBytes int, c codec.Codec[T]) ([]*Reader[T], error) {
	live := make([]Segment, 0, 4) // on the stack: a run has at most four
	for _, s := range r.Segments {
		if s.Records > 0 {
			live = append(live, s)
		}
	}
	if r.Concatenable || len(live) == 0 {
		n := 0
		for _, s := range live {
			n += max(s.Files, 1)
		}
		rd := newReader[T](st, nil, bufBytes, c)
		// A run of one file, every forward run, lists it in the reader, and
		// the one piece is the reader's own slot: no allocation but the
		// reader's.
		rd.files = rd.inline[:0]
		if n > len(rd.inline) {
			rd.files = make([]spillFile, 0, n)
		}
		for _, s := range live {
			rd.files = s.appendFiles(rd.files, true)
		}
		rd.self[0] = rd
		return rd.self[:], nil
	}
	per := max(bufBytes/len(live), DefaultPageSize)
	pieces := make([]*Reader[T], 0, len(live))
	for _, s := range live {
		piece, err := openSegment(st, s, per, c, true)
		if err != nil {
			for _, o := range pieces {
				o.Close()
			}
			return nil, err
		}
		pieces = append(pieces, piece)
	}
	return pieces, nil
}

// Remove deletes all files of the run; see Segment.Remove.
func (r Run) Remove(st storage.Backend) error {
	var first error
	for _, s := range r.Segments {
		if s.Records == 0 {
			continue
		}
		if err := s.Remove(st); first == nil {
			first = err
		}
	}
	return first
}

// Namer hands out unique file names for runs and streams within one sort.
type Namer struct {
	prefix string
	n      int
}

// NewNamer returns a namer whose names start with prefix.
func NewNamer(prefix string) *Namer { return &Namer{prefix: prefix} }

// Next returns a fresh name with the given role suffix.
func (nm *Namer) Next(role string) string {
	nm.n++
	var seq [20]byte
	b := seq[:0]
	for p := 1000; p > 1 && nm.n < p; p /= 10 {
		b = append(b, '0') // at least four digits
	}
	b = strconv.AppendInt(b, int64(nm.n), 10)
	return nm.prefix + "-" + string(b) + "-" + role
}

// Seq returns the number of names handed out so far. A resumable sort
// records it at every run boundary; a resumed pass replays the names from
// the start and reaches the same count there.
func (nm *Namer) Seq() int { return nm.n }
