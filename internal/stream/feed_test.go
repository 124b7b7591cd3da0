package stream

import (
	"errors"
	"io"
	"math"
	"slices"
	"testing"
	"time"
)

var errFeedStopped = errors.New("feed stopped")

// dealOne takes consumer i's next block, fills it with vals and deals it.
func dealOne(t *testing.T, f *Feed[int], i int, vals ...int) {
	t.Helper()
	blk, err := f.Block(i)
	if err != nil {
		t.Fatalf("Block(%d): %v", i, err)
	}
	f.Deal(i, append(blk, vals...))
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

// TestFeedDealsRoundRobinOnRecycledBlocks deals blocks to three consumers in
// turn from one goroutine: each reads its own blocks in order, every block
// the dealer takes after the first round is one it took in the first, and
// dealing and reading allocate nothing.
func TestFeedDealsRoundRobinOnRecycledBlocks(t *testing.T) {
	const consumers, depth, blockLen = 3, 2, 4
	f := NewFeed[int](consumers, depth, blockLen, errFeedStopped)
	readers := make([]*FeedReader[int], consumers)
	for i := range readers {
		readers[i] = f.Reader(i, nil)
	}
	owned := make([]map[*int]bool, consumers)
	next := 0
	buf := make([]int, 3)
	round := func(check bool) {
		for i := range consumers {
			blk, err := f.Block(i)
			if err != nil || len(blk) != 0 || cap(blk) != blockLen {
				t.Fatalf("Block(%d) = len %d cap %d, %v", i, len(blk), cap(blk), err)
			}
			if p := &blk[:1][0]; check && !owned[i][p] {
				t.Fatalf("consumer %d was dealt a block it did not own", i)
			} else if owned[i] == nil {
				owned[i] = map[*int]bool{p: true}
			} else {
				owned[i][p] = true
			}
			for range blockLen {
				blk = append(blk, next)
				next++
			}
			f.Deal(i, blk)
			for want := next - blockLen; want < next; {
				k, err := readers[i].ReadBatch(buf)
				if err != nil || k == 0 || k > next-want || buf[0] != want || buf[k-1] != want+k-1 {
					t.Fatalf("consumer %d read %v, %v, want from %d", i, buf[:k], err, want)
				}
				want += k
			}
		}
	}
	for range depth {
		round(false)
	}
	for i := range consumers {
		if len(owned[i]) != depth {
			t.Fatalf("consumer %d was dealt %d distinct blocks in the first rounds, want %d", i, len(owned[i]), depth)
		}
	}
	round(true)
	if allocs := testing.AllocsPerRun(100, func() { round(true) }); allocs != 0 {
		t.Fatalf("a round of dealing and reading allocates %v times, want 0", allocs)
	}
	f.Close()
	for i, r := range readers {
		if got := r.Served(); got != int64(next/consumers) {
			t.Errorf("consumer %d served %d elements, want %d", i, got, next/consumers)
		}
		if _, err := r.ReadBatch(make([]int, 1)); err != io.EOF {
			t.Errorf("consumer %d after Close: %v, want io.EOF", i, err)
		}
	}
}

// TestFeedReadsDealtBlocksBeforeTheStop stops a feed with blocks still
// queued: the reader serves them, then the stopped error — whether or not
// the dealer has closed the feed — while Err and Block report the first
// failure, not a later one.
func TestFeedReadsDealtBlocksBeforeTheStop(t *testing.T) {
	for _, closed := range []bool{false, true} {
		f := NewFeed[int](2, 3, 2, errFeedStopped)
		r := f.Reader(0, nil)
		dealOne(t, f, 0, 1, 2)
		dealOne(t, f, 0, 3)
		dealOne(t, f, 1, 9)
		first := errors.New("first")
		if f.Err() != nil {
			t.Fatalf("Err before a stop = %v", f.Err())
		}
		f.Stop(first)
		f.Stop(errors.New("second"))
		if closed {
			f.Close()
		}
		if got, err := readN(r, 3); err != nil || !slices.Equal(got, []int{1, 2, 3}) {
			t.Fatalf("closed=%v: read %v, %v before the stop error, want [1 2 3]", closed, got, err)
		}
		for range 2 {
			if _, err := r.ReadBatch(make([]int, 4)); err != errFeedStopped {
				t.Fatalf("closed=%v: after the dealt blocks: %v, want the stopped error", closed, err)
			}
		}
		if err := f.Err(); err != first {
			t.Fatalf("Err = %v, want the first failure", err)
		}
		if blk, err := f.Block(1); blk != nil || err != first {
			t.Fatalf("Block after the stop = %v, %v, want nil and the first failure", blk, err)
		}
	}
}

// TestFeedReaderToken reads with a compute token: while the reader waits
// for a block the token is free for another consumer, and the reader holds
// it again when it returns. A nil token channel means the reader holds none.
func TestFeedReaderToken(t *testing.T) {
	token := make(chan struct{}, 1)
	f := NewFeed[int](2, 1, 1, errFeedStopped)
	token <- struct{}{} // consumer 0 computes
	got := make(chan []int)
	go func() {
		v, _ := readN(f.Reader(0, token), 1)
		got <- v
	}()
	select {
	case token <- struct{}{}: // consumer 1 computes while 0 waits
	case <-time.After(time.Minute):
		t.Fatal("the waiting reader kept its token")
	}
	<-token
	dealOne(t, f, 0, 7)
	if v := <-got; !slices.Equal(v, []int{7}) {
		t.Fatalf("read %v, want [7]", v)
	}
	if len(token) != 1 {
		t.Fatalf("the reader returned holding %d tokens, want 1", len(token))
	}

	go func() {
		v, _ := readN(f.Reader(1, nil), 1)
		got <- v
	}()
	dealOne(t, f, 1, 8)
	if v := <-got; !slices.Equal(v, []int{8}) {
		t.Fatalf("without a token read %v, want [8]", v)
	}
}

// TestFeedDiscardDrainsToEOF discards what is dealt to a consumer until
// the feed closes: Discard returns nil, every block is back with the
// dealer, and the reader stays at io.EOF.
func TestFeedDiscardDrainsToEOF(t *testing.T) {
	const depth = 2
	f := NewFeed[int](1, depth, 2, errFeedStopped)
	r := f.Reader(0, nil)
	done := make(chan error)
	go func() {
		_, err := Discard[int](r, math.MaxInt64, nil)
		done <- err
	}()
	for i := range 5 * depth {
		dealOne(t, f, 0, i, i)
	}
	f.Close()
	if err := <-done; err != nil {
		t.Fatalf("Discard = %v, want nil at the end of the input", err)
	}
	if n, err := r.ReadBatch(make([]int, 1)); n != 0 || err != io.EOF {
		t.Fatalf("ReadBatch after Discard = %d, %v, want io.EOF", n, err)
	}
	for range depth {
		if _, err := f.Block(0); err != nil {
			t.Fatalf("a block did not come back: %v", err)
		}
	}

	f = NewFeed[int](1, depth, 2, errFeedStopped)
	dealOne(t, f, 0, 1)
	f.Stop(errors.New("failed"))
	if _, err := Discard[int](f.Reader(0, nil), math.MaxInt64, nil); err != errFeedStopped {
		t.Fatalf("Discard of a stopped feed = %v, want the stopped error", err)
	}
}

// TestFeedStopReleasesWaitingDealer stops a feed while the dealer waits for
// a free block of a consumer that reads nothing: Block returns the failure.
func TestFeedStopReleasesWaitingDealer(t *testing.T) {
	f := NewFeed[int](1, 1, 1, errFeedStopped)
	dealOne(t, f, 0, 1)
	failed := errors.New("consumer failed")
	waited := make(chan error)
	go func() {
		_, err := f.Block(0)
		waited <- err
	}()
	select {
	case err := <-waited:
		t.Fatalf("Block returned %v with every block dealt and unread", err)
	case <-time.After(10 * time.Millisecond):
	}
	f.Stop(failed)
	select {
	case err := <-waited:
		if err != failed {
			t.Fatalf("Block = %v, want the failure", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("the stop did not release the waiting dealer")
	}
}
