package stream

import (
	"errors"
	"io"
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

// gated is a source that serves, per read, the batch sent on c — an empty
// one meaning the end — and, once c is closed, fails with err, or ends when
// err is nil.
type gated struct {
	c   chan []int
	err error
}

func (g gated) ReadBatch(dst []int) (int, error) {
	v, ok := <-g.c
	if !ok {
		return 0, g.err
	} else if len(v) == 0 {
		return 0, io.EOF
	}
	return copy(dst, v), nil
}

// readN reads n elements from r in batches of up to three, or what it read
// before an error.
func readN(r *FeedReader[int], n int) ([]int, error) {
	got := make([]int, 0, n)
	buf := make([]int, 3)
	for len(got) < n {
		k, err := r.ReadBatch(buf[:min(len(buf), n-len(got))])
		if err != nil {
			return got, err
		}
		got = append(got, buf[:k]...)
	}
	return got, nil
}

// upTo3 serves a slice at most three elements a read, so the dealer fills a
// block of four with several reads.
type upTo3 struct{ vals []int }

func (s *upTo3) ReadBatch(dst []int) (int, error) {
	if len(s.vals) == 0 {
		return 0, io.EOF
	}
	n := copy(dst[:min(len(dst), 3)], s.vals)
	s.vals = s.vals[n:]
	return n, nil
}

// TestFeedDealsRoundRobinOnRecycledBlocks deals 50 elements in blocks of
// four to three consumers, each reading on a goroutine of its own: consumer
// i reads blocks i, i+3, … in order, then io.EOF, and counts them and the
// elements it served; the allocator is asked for depth blocks per consumer and no more, and Release
// hands back each of them once.
func TestFeedDealsRoundRobinOnRecycledBlocks(t *testing.T) {
	const consumers, depth, blockLen, n = 3, 2, 4, 50
	var allocated [][]int
	f := NewFeed(consumers, depth, blockLen, func(k int) []int {
		allocated = append(allocated, make([]int, 0, k))
		return allocated[len(allocated)-1]
	})
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	var wg sync.WaitGroup
	readers := make([]*FeedReader[int], consumers)
	for i := range readers {
		readers[i] = f.Reader(i, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var want []int
			for _, v := range vals {
				if v/blockLen%consumers == i {
					want = append(want, v)
				}
			}
			got, err := readN(readers[i], n)
			if err != io.EOF || !slices.Equal(got, want) {
				t.Errorf("consumer %d read %v, %v, want %v and io.EOF", i, got, err, want)
			}
			if blocks := (len(want) + blockLen - 1) / blockLen; readers[i].Blocks != blocks {
				t.Errorf("consumer %d counted %d blocks, want %d", i, readers[i].Blocks, blocks)
			}
			if served := readers[i].Served(); served != int64(len(want)) {
				t.Errorf("consumer %d served %d elements, want %d", i, served, len(want))
			}
		}()
	}
	f.DealFrom(&upTo3{vals})
	wg.Wait()
	if len(allocated) != consumers*depth {
		t.Fatalf("the feed allocated %d blocks, want %d", len(allocated), consumers*depth)
	}
	var released [][]int
	f.Release(func(b []int) { released = append(released, b) })
	if len(released) != len(allocated) {
		t.Fatalf("Release handed back %d blocks, want %d", len(released), len(allocated))
	}
	for i, b := range released {
		if len(b) != 0 || &b[:1][0] != &allocated[i][:1][0] {
			t.Fatalf("Release handed back block %d as len %d, or not the one allocated", i, len(b))
		}
	}
}

// TestFeedAllocatesNothingPerBlock runs a whole feed — NewFeed, DealFrom on
// a goroutine of its own, the readers drained in the order their blocks are
// dealt — over a source and over one ten times longer: both allocate the
// same, so dealing, reading and waiting for a block allocate nothing.
func TestFeedAllocatesNothingPerBlock(t *testing.T) {
	const consumers, depth, blockLen = 3, 2, 4
	buf := make([]int, blockLen)
	allocs := func(n int) float64 {
		vals := make([]int, n)
		return testing.AllocsPerRun(20, func() {
			f := NewFeed[int](consumers, depth, blockLen, nil)
			go f.DealFrom(NewSliceReader(vals))
			readers := make([]*FeedReader[int], consumers)
			for i := range readers {
				readers[i] = f.Reader(i, nil)
			}
			if read := drainInTurn(t, readers, buf); read != n {
				t.Fatalf("read %d elements, want %d", read, n)
			}
		})
	}
	if short, long := allocs(60), allocs(600); short != long {
		t.Fatalf("a feed over 60 elements allocates %v times, over 600 %v, want the same", short, long)
	}
}

// drainInTurn reads the readers on one goroutine, a block of len(buf) from
// each in turn — the order the dealer deals them — until the end of the
// input, and returns how many elements it read.
func drainInTurn(t *testing.T, readers []*FeedReader[int], buf []int) int {
	read := 0
	for i := 0; ; i = (i + 1) % len(readers) {
		for k := 0; k < len(buf); {
			n, err := readers[i].ReadBatch(buf[k:])
			read, k = read+n, k+n
			if err == io.EOF { // every block is dealt: drain the rest in any order
				for _, r := range readers {
					for err = nil; err == nil; read += n {
						n, err = r.ReadBatch(buf)
					}
					if err != io.EOF {
						t.Fatalf("draining after the end: %v", err)
					}
				}
				return read
			} else if err != nil {
				t.Fatalf("reader %d: %v", i, err)
			}
		}
	}
}

// TestFeedSourceFailureFollowsItsElements deals a source that fails after
// seven elements: each consumer reads every element dealt to it — the
// partial last block included — then the failure, again on every read.
func TestFeedSourceFailureFollowsItsElements(t *testing.T) {
	boom := errors.New("boom")
	f := NewFeed[int](2, 3, 2, nil)
	g := gated{make(chan []int, 8), boom}
	for _, b := range [][]int{{0, 1}, {2, 3}, {4, 5}, {6}} {
		g.c <- b
	}
	close(g.c)
	f.DealFrom(g)
	if f.Err() != boom {
		t.Fatalf("Err = %v, want the source's failure", f.Err())
	}
	for i, want := range [][]int{{0, 1, 4, 5}, {2, 3, 6}} {
		r := f.Reader(i, nil)
		if got, err := readN(r, 10); err != boom || !slices.Equal(got, want) {
			t.Fatalf("consumer %d read %v, %v, want %v, then the failure", i, got, err, want)
		}
		if _, err := r.ReadBatch(make([]int, 1)); err != boom {
			t.Fatalf("consumer %d after the failure: %v", i, err)
		}
	}
}

// TestFeedReadsDealtBlocksBeforeTheStop stops a feed while the dealer reads
// its source: the block it was filling is not dealt, the dealer returns,
// and the reader serves the block dealt before the stop, then the first
// failure, not a later one.
func TestFeedReadsDealtBlocksBeforeTheStop(t *testing.T) {
	f := NewFeed[int](1, 2, 2, nil)
	g := gated{make(chan []int), nil}
	dealt := make(chan struct{})
	go func() {
		f.DealFrom(g)
		close(dealt)
	}()
	g.c <- []int{1, 2}
	first := errors.New("first")
	f.Stop(first)
	f.Stop(errors.New("second"))
	g.c <- []int{3, 4}
	<-dealt
	if got, err := readN(f.Reader(0, nil), 4); err != first || !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("read %v, %v, want [1 2] then the first failure", got, err)
	}
}

// TestFeedReaderToken reads with a compute token: while the reader waits
// for a block the token is free for another consumer, and the reader holds
// it again when it returns, having counted the wait. A nil token channel
// means the reader holds none.
func TestFeedReaderToken(t *testing.T) {
	token := make(chan struct{}, 1)
	f := NewFeed[int](2, 1, 1, nil)
	g := gated{make(chan []int), nil}
	go f.DealFrom(g)
	token <- struct{}{} // consumer 0 computes
	r := f.Reader(0, token)
	got := make(chan []int)
	go func() {
		v, _ := readN(r, 1)
		got <- v
	}()
	select {
	case token <- struct{}{}: // consumer 1 computes while 0 waits
	case <-time.After(time.Minute):
		t.Fatal("the waiting reader kept its token")
	}
	<-token
	g.c <- []int{7}
	if v := <-got; !slices.Equal(v, []int{7}) {
		t.Fatalf("read %v, want [7]", v)
	}
	if len(token) != 1 {
		t.Fatalf("the reader returned holding %d tokens, want 1", len(token))
	}
	if r.Waited <= 0 {
		t.Fatalf("the reader waited %v, want more than nothing", r.Waited)
	}

	go func() {
		v, _ := readN(f.Reader(1, nil), 1)
		got <- v
	}()
	g.c <- []int{8}
	if v := <-got; !slices.Equal(v, []int{8}) {
		t.Fatalf("without a token read %v, want [8]", v)
	}
	close(g.c)
}

// TestFeedDiscardDrainsToEOF discards what is dealt to a consumer until
// the source ends: Discard returns nil and the reader stays at io.EOF; over
// a failing source Discard returns the failure.
func TestFeedDiscardDrainsToEOF(t *testing.T) {
	f := NewFeed[int](1, 2, 2, nil)
	go f.DealFrom(NewSliceReader(make([]int, 21)))
	r := f.Reader(0, nil)
	if n, err := Discard[int](r, math.MaxInt64, nil); n != 21 || err != nil {
		t.Fatalf("Discard = %d, %v, want 21 and nil at the end of the input", n, err)
	}
	if n, err := r.ReadBatch(make([]int, 1)); n != 0 || err != io.EOF {
		t.Fatalf("ReadBatch after Discard = %d, %v, want io.EOF", n, err)
	}

	failed := errors.New("failed")
	f = NewFeed[int](1, 2, 2, nil)
	g := gated{make(chan []int, 1), failed}
	g.c <- []int{1}
	close(g.c)
	go f.DealFrom(g)
	if n, err := Discard[int](f.Reader(0, nil), math.MaxInt64, nil); n != 1 || err != failed {
		t.Fatalf("Discard of a failed source = %d, %v, want 1 and the failure", n, err)
	}
}

// TestFeedStopReleasesWaitingDealer stops a feed while the dealer waits for
// a free block of a consumer that reads nothing: DealFrom returns.
func TestFeedStopReleasesWaitingDealer(t *testing.T) {
	f := NewFeed[int](1, 1, 1, nil)
	dealt := make(chan struct{})
	go func() {
		f.DealFrom(NewSliceReader([]int{1, 2, 3}))
		close(dealt)
	}()
	select {
	case <-dealt:
		t.Fatal("DealFrom returned with every block dealt and unread")
	case <-time.After(10 * time.Millisecond):
	}
	f.Stop(errors.New("consumer failed"))
	select {
	case <-dealt:
	case <-time.After(time.Minute):
		t.Fatal("the stop did not release the waiting dealer")
	}
}
