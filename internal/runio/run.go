package runio

import (
	"errors"
	"fmt"
	"os"

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
func (s Segment) appendFiles(dst []spillFile) []spillFile {
	s.EachFile(func(name string, i int) {
		dst = append(dst, spillFile{name: name, paged: s.Backward, index: i, joins: s.Backward && i < s.Files-1})
	})
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
	// the division point; OpenRun interleaves the segments of such a run.
	Concatenable bool
}

// SingleRun describes a run stored as one segment.
func SingleRun(seg Segment) Run {
	return Run{Segments: []Segment{seg}, Records: seg.Records, Concatenable: true}
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
	return fmt.Sprintf("%s-%04d-%s", nm.prefix, nm.n, role)
}

// Seq returns the number of names handed out so far. A resumable sort
// records it at every run boundary so a resumed pass can fast-forward the
// namer (SetSeq) and continue the exact same name sequence.
func (nm *Namer) Seq() int { return nm.n }

// SetSeq fast-forwards (or rewinds) the namer to a recorded sequence
// position: the next Next call hands out name n+1.
func (nm *Namer) SetSeq(n int) { nm.n = n }
