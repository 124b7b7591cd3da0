package runio

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/storage"
)

// Segment is one physical piece of a logical run: either a forward file or a
// backward file chain, always read in ascending order.
type Segment struct {
	// Name is the file name (forward) or the chain base name (backward).
	Name string
	// Records is the number of elements stored in the segment.
	Records int64
	// Backward marks the Appendix A decreasing-stream layout.
	Backward bool
	// Files is the chain length for backward segments (0 or 1 file chains
	// are legal); it is ignored for forward segments.
	Files int
}

// appendFiles appends the segment's files to dst in ascending read order:
// the forward file, or the chain files in reverse creation order.
func (s Segment) appendFiles(dst []spillFile) []spillFile {
	if !s.Backward {
		return append(dst, spillFile{name: s.Name})
	}
	for i := s.Files - 1; i >= 0; i-- {
		dst = append(dst, spillFile{name: backwardFileName(s.Name, i), paged: true, index: i, joins: i < s.Files-1})
	}
	return dst
}

// OpenSegment returns an ascending reader over the segment with the given
// buffer size in bytes, decoding elements with c. A forward segment's file
// is opened here, so a missing one fails this call; a chain's files are
// opened as the read reaches them, and a missing or corrupt one fails that
// read.
func OpenSegment[T any](st storage.Backend, s Segment, bufBytes int, c codec.Codec[T]) (*Reader[T], error) {
	r := newReader(st, s.appendFiles(nil), bufBytes, c)
	if !s.Backward {
		if err := r.openNext(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Remove deletes the segment's files.
func (s Segment) Remove(st storage.Backend) error {
	if s.Backward {
		return RemoveBackward(st, s.Name, s.Files)
	}
	return st.Remove(s.Name)
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
	// the division point; such runs must be merged as separate inputs.
	Concatenable bool
}

// Inputs returns the individually sorted streams of the run: the whole run
// when concatenable, otherwise one entry per non-empty segment. It exists
// for diagnostics and tests; the merge phase itself always treats a run as
// a single input (OpenRun interleaves overlapping segments on the fly).
func (r Run) Inputs() []Run {
	if r.Concatenable {
		return []Run{r}
	}
	var ins []Run
	for _, s := range r.Segments {
		if s.Records == 0 {
			continue
		}
		ins = append(ins, Run{Segments: []Segment{s}, Records: s.Records, Concatenable: true})
	}
	return ins
}

// SingleRun describes a run stored as one forward file.
func SingleRun(name string, records int64) Run {
	return Run{Segments: []Segment{{Name: name, Records: records}}, Records: records, Concatenable: true}
}

// OpenRun returns an ascending reader over the whole run within the given
// buffer budget in bytes. A concatenable run is one Reader over the files of
// all its non-empty segments (one open file at a time, so the whole budget
// buffers it); a run with overlapping stream ranges opens a Reader per
// segment — splitting the budget — and interleave-merges them on the fly, so
// a run is always a single sorted merge input either way. Because overlaps
// are narrow, the interleaved read pattern still drains mostly one file at a
// time and stays nearly sequential on disk.
func OpenRun[T any](st storage.Backend, r Run, bufBytes int, c codec.Codec[T], less func(a, b T) bool) (ReadCloser[T], error) {
	nonEmpty := 0
	for _, s := range r.Segments {
		if s.Records > 0 {
			nonEmpty++
		}
	}
	if r.Concatenable || nonEmpty == 0 {
		var files []spillFile
		for _, s := range r.Segments {
			if s.Records > 0 {
				files = s.appendFiles(files)
			}
		}
		return newReader(st, files, bufBytes, c), nil
	}
	per := max(bufBytes/nonEmpty, DefaultPageSize)
	open := make([]*Reader[T], 0, nonEmpty)
	for _, s := range r.Segments {
		if s.Records == 0 {
			continue
		}
		rc, err := OpenSegment(st, s, per, c)
		if err != nil {
			for _, o := range open {
				o.Close()
			}
			return nil, err
		}
		open = append(open, rc)
	}
	return newInterleaveReader(open, less)
}

// Remove deletes all files of the run.
func (r Run) Remove(st storage.Backend) error {
	for _, s := range r.Segments {
		if s.Records == 0 {
			continue
		}
		if err := s.Remove(st); err != nil {
			return err
		}
	}
	return nil
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
	return fmt.Sprintf("%s-%04d-%s", nm.prefix, nm.n, role)
}

// Seq returns the number of names handed out so far. A resumable sort
// records it at every run boundary so a resumed pass can fast-forward the
// namer (SetSeq) and continue the exact same name sequence.
func (nm *Namer) Seq() int { return nm.n }

// SetSeq fast-forwards (or rewinds) the namer to a recorded sequence
// position: the next Next call hands out name n+1.
func (nm *Namer) SetSeq(n int) { nm.n = n }
