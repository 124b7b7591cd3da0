package stream

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// This file checks Feed's protocol in every order. A model of the feed — its
// queues, latch and compute tokens, one dealer running DealFrom over a
// scripted source and one to three readers — is a small transition system
// whose steps are the feed's channel operations. TestFeedModel drives it
// through every interleaving of bounded schedules and checks its invariants
// in every state; TestFeedMatchesModel then holds the channel implementation
// to the model on random schedules.

// The model's bounds: blocks of modelBlockLen elements, at most maxC
// consumers of at most maxD blocks each.
const (
	modelBlockLen = 2
	maxC, maxD    = 3, 2
)

// modelCase is one bounded configuration of the model.
type modelCase struct {
	consumers, depth int
	tokens           int  // compute tokens the readers share; 0: they hold none
	elems            int  // elements the source serves, at most a block per read
	fails            bool // the source fails after them instead of ending
	stops            bool // one reader may stop the feed at any point
	mut              mutation
}

// mutation is a bug planted in the model, to show the invariants catch it.
type mutation int

const (
	correct        mutation = iota
	dealAfterLatch          // deal queues a block filled after the latch
	keepToken               // a waiting reader keeps its token
	stopNoRelease           // Stop does not release a dealer waiting for a block
	dropPartial             // DealFrom drops the partial block before a failure
)

// Program counters of the dealer (DealFrom, block and deal) and of a reader
// (ReadBatch's next, with the lane's token around it).
const (
	dTake   = iota // block: the latch check
	dSelect        // block: waiting for a free block or the latch
	dRead          // a read of the source into the held block
	dDeal          // deal: the latch check
	dSend          // deal: the send to the consumer's queue
	dStop          // Stop after a failure of the source
	dDone          // returned, the queues closed
)

const (
	rStart  = iota // taking a compute token to start
	rIdle          // between reads, holding its token
	rWait          // next: waiting for a block, the end or the latch
	rNested        // next: the take after seeing the latch
	rReacq         // next: taking the token back, then the result
	rEnded         // io.EOF, the failure, or its own Stop
)

// Latch values: none, the source's failure, reader j's stop (latchStop+j).
const (
	latchNone = iota
	latchSource
	latchStop
)

type queue struct {
	b [maxD]int8
	n int8
}

func (q *queue) push(b int8) { q.b[q.n] = b; q.n++ }

func (q *queue) pop() int8 {
	b := q.b[0]
	copy(q.b[:], q.b[1:q.n])
	q.n--
	return b
}

// block is what a block holds: the deal it was filled by, its first
// element and its length.
type block struct{ k, first, n int8 }

type mreader struct {
	pc    int8
	cur   int8 // block held, -1 for none
	ok    bool // the take found a block
	token bool
	got   int8 // blocks served
	owed  int8 // blocks queued when it saw the latch, not yet taken
}

// mstate is a state of the model; comparable, so it keys the visited set.
type mstate struct {
	pos              int8 // elements read from the source
	dpc, di, dk      int8 // dealer pc, consumer dealt to, deal number
	dblk, dlen, dend int8 // block held (-1), elements in it, the source's end (0, io.EOF 1, failure 2)
	lateRead         bool // the held block was read into after the latch
	latch            int8
	closed, stopUsed bool
	tokens           int8 // free tokens
	free, full       [maxC]queue
	dealt            [maxC]int8 // blocks dealt per consumer
	dealtElems       int8
	blk              [maxC * maxD]block
	r                [maxC]mreader
}

// step is one enabled transition: party 0 is the dealer, 1+j reader j; opt
// picks among a party's choices.
type step struct{ party, opt int8 }

// event is what a step shows outside the feed: the dealer reaching a read
// of the source (a: the length asked for) or returning, a reader's read
// serving a block (a: first element, b: length), ending (a: the latch, 0
// for io.EOF), starting or stopping.
type event struct{ party, kind, a, b int8 }

const (
	evNone = iota
	evGate
	evReturned
	evServed
	evEnded
	evStarted
	evStopped
)

func (c *modelCase) start() mstate {
	s := mstate{dblk: -1, tokens: int8(c.tokens)}
	for i := range c.consumers {
		for d := range c.depth {
			s.free[i].push(int8(i*c.depth + d))
		}
		s.r[i] = mreader{pc: rIdle, cur: -1}
		if c.tokens > 0 {
			s.r[i].pc = rStart
		}
	}
	return s
}

// steps appends the transitions enabled in s to buf.
func (c *modelCase) steps(s *mstate, buf []step) []step {
	switch s.dpc {
	case dTake, dRead, dDeal, dSend, dStop:
		buf = append(buf, step{0, 0})
	case dSelect:
		if s.free[s.di].n > 0 {
			buf = append(buf, step{0, 0})
		}
		if s.latch != latchNone && c.mut != stopNoRelease {
			buf = append(buf, step{0, 1})
		}
	}
	for j := range c.consumers {
		r, p := &s.r[j], int8(1+j)
		switch r.pc {
		case rStart:
			if s.tokens > 0 {
				buf = append(buf, step{p, 0})
			}
		case rIdle:
			buf = append(buf, step{p, 0})
			if c.stops && !s.stopUsed {
				buf = append(buf, step{p, 1})
			}
		case rNested:
			buf = append(buf, step{p, 0})
		case rWait:
			if s.full[j].n > 0 || s.closed {
				buf = append(buf, step{p, 0})
			}
			if s.latch != latchNone {
				buf = append(buf, step{p, 1})
			}
		case rReacq:
			if !c.wantsToken(r) || s.tokens > 0 {
				buf = append(buf, step{p, 0})
			}
		}
	}
	return buf
}

// external reports whether st is a step the harness schedules: a read of
// the source, a reader's read or stop, or its start.
func (c *modelCase) external(s *mstate, st step) bool {
	if st.party == 0 {
		return s.dpc == dRead
	}
	pc := s.r[st.party-1].pc
	return pc == rStart || pc == rIdle
}

func (c *modelCase) wantsToken(r *mreader) bool { return c.tokens > 0 && !r.token }

// apply takes st in s, returning what it shows and the invariant it broke,
// if any.
func (c *modelCase) apply(s *mstate, st step) (event, string) {
	if st.party == 0 {
		return c.deal(s, st.opt)
	}
	return c.read(s, int(st.party-1), st.opt)
}

func (c *modelCase) deal(s *mstate, opt int8) (event, string) {
	i := s.di
	switch s.dpc {
	case dTake:
		s.dpc = dSelect
		if s.latch != latchNone {
			s.dpc = dDone
			s.closed = true
			return event{0, evReturned, 0, 0}, ""
		}
	case dSelect:
		if opt == 1 {
			s.dpc, s.closed = dDone, true
			return event{0, evReturned, 0, 0}, ""
		}
		s.dblk, s.dlen, s.lateRead = s.free[i].pop(), 0, false
		s.dpc = dRead
		return event{0, evGate, modelBlockLen, 0}, ""
	case dRead:
		if s.latch != latchNone {
			s.lateRead = true
		}
		if k := min(modelBlockLen-s.dlen, int8(c.elems)-s.pos); k > 0 {
			s.pos += k
			s.dlen += k
		} else {
			s.dend = 1
			if c.fails {
				s.dend = 2
			}
		}
		if s.dlen < modelBlockLen && s.dend == 0 {
			return event{0, evGate, modelBlockLen - s.dlen, 0}, ""
		}
		s.dpc = dDeal
		if s.dend == 2 && c.mut == dropPartial {
			s.dpc = dStop
		}
	case dDeal:
		s.dpc = dSend
		if s.dlen == 0 || s.latch != latchNone && c.mut != dealAfterLatch {
			s.free[i].push(s.dblk)
			s.dblk = -1
			return c.dealt(s)
		}
	case dSend:
		if s.lateRead {
			return event{}, "a block read into after the latch was dealt"
		}
		s.blk[s.dblk] = block{k: s.dk, first: s.pos - s.dlen, n: s.dlen}
		s.full[i].push(s.dblk)
		s.dblk = -1
		s.dealt[i]++
		s.dealtElems += s.dlen
		return c.dealt(s)
	case dStop:
		if s.latch == latchNone {
			s.latch = latchSource
		}
		s.dpc, s.closed = dDone, true
		return event{0, evReturned, 0, 0}, ""
	}
	return event{}, ""
}

// dealt moves the dealer on from a deal: to the next consumer's block, or
// out at the end of the source.
func (c *modelCase) dealt(s *mstate) (event, string) {
	switch s.dend {
	case 1:
		s.dpc, s.closed = dDone, true
		return event{0, evReturned, 0, 0}, ""
	case 2:
		s.dpc = dStop
	default:
		s.dpc, s.di, s.dk = dTake, (s.di+1)%int8(c.consumers), s.dk+1
	}
	return event{}, ""
}

func (c *modelCase) read(s *mstate, j int, opt int8) (event, string) {
	r, p := &s.r[j], int8(1+j)
	take := func() {
		r.ok = s.full[j].n > 0
		if r.ok {
			r.cur = s.full[j].pop()
			r.owed = max(r.owed-1, 0)
		}
	}
	switch r.pc {
	case rStart:
		s.tokens--
		r.token, r.pc = true, rIdle
		return event{p, evStarted, 0, 0}, ""
	case rIdle:
		if opt == 1 {
			s.stopUsed = true
			if s.latch == latchNone {
				s.latch = latchStop + int8(j)
			}
			c.exit(s, r)
			return event{p, evStopped, 0, 0}, ""
		}
		// The block read goes back, and the take that does not wait
		// finds a block or the end; or the reader gives its token back
		// and waits. Nothing between these steps changes what follows.
		if r.cur >= 0 {
			s.free[j].push(r.cur)
			r.cur = -1
		}
		if s.full[j].n > 0 || s.closed {
			take()
			return c.result(s, j)
		}
		r.pc = rWait
		if c.tokens > 0 && c.mut != keepToken {
			s.tokens++
			r.token = false
		}
	case rWait:
		r.pc = rReacq
		if opt == 1 {
			r.owed, r.pc = s.full[j].n, rNested
		} else {
			take()
		}
	case rNested:
		take()
		r.pc = rReacq
	case rReacq:
		if c.wantsToken(r) {
			s.tokens--
			r.token = true
		}
		return c.result(s, j)
	}
	return event{}, ""
}

// result ends a reader's next: it serves the block taken, or ends with
// io.EOF or the latched failure, checking what it was owed.
func (c *modelCase) result(s *mstate, j int) (event, string) {
	r, p := &s.r[j], int8(1+j)
	if r.ok {
		b := s.blk[r.cur]
		if int(b.k) != j+int(r.got)*c.consumers {
			return event{}, fmt.Sprintf("reader %d served deal %d as its block %d", j, b.k, r.got)
		}
		r.got++
		r.pc = rIdle
		return event{p, evServed, b.first, b.n}, ""
	}
	ev := event{p, evEnded, s.latch, 0}
	c.exit(s, r)
	switch {
	case s.latch == latchNone && (r.got != s.dealt[j] || s.dealtElems != int8(c.elems)):
		return ev, fmt.Sprintf("reader %d read io.EOF after %d of %d blocks, %d of %d elements dealt", j, r.got, s.dealt[j], s.dealtElems, c.elems)
	case s.latch != latchNone && r.owed > 0:
		return ev, fmt.Sprintf("reader %d reported the failure with %d blocks queued before it saw it", j, r.owed)
	case s.latch == latchSource && (r.got != s.dealt[j] || s.dealtElems != s.pos):
		return ev, fmt.Sprintf("reader %d reported the source's failure after %d of its %d blocks, %d of %d elements read dealt", j, r.got, s.dealt[j], s.dealtElems, s.pos)
	}
	return ev, ""
}

// exit ends a reader, handing back the token its lane holds.
func (c *modelCase) exit(s *mstate, r *mreader) {
	if r.token {
		s.tokens++
		r.token = false
	}
	r.pc = rEnded
}

// check holds s to the invariants that hold in every state, given its
// enabled steps.
func (c *modelCase) check(s *mstate, enabled []step) string {
	var seen [maxC * maxD]int
	held := c.tokens - int(s.tokens)
	mark := func(b int8, owner int) {
		seen[b]++
		if int(b)/c.depth != owner {
			seen[b] += 10 // another consumer's block
		}
	}
	for i := range c.consumers {
		for _, b := range s.free[i].b[:s.free[i].n] {
			mark(b, i)
		}
		for _, b := range s.full[i].b[:s.full[i].n] {
			mark(b, i)
		}
		if r := s.r[i]; r.cur >= 0 {
			mark(r.cur, i)
		}
		if s.r[i].token {
			held--
		}
		if s.r[i].pc == rWait && s.r[i].token {
			return fmt.Sprintf("reader %d waits holding its token", i)
		}
	}
	if s.dblk >= 0 {
		mark(s.dblk, int(s.di))
	}
	for b := range c.consumers * c.depth {
		if seen[b] != 1 {
			return fmt.Sprintf("block %d is in %d places or with another consumer", b, seen[b])
		}
	}
	if held != 0 {
		return fmt.Sprintf("%d compute tokens unaccounted for", held)
	}
	can := func(party int8) bool {
		for _, st := range enabled {
			if st.party == party {
				return true
			}
		}
		return false
	}
	if s.latch != latchNone && s.dpc == dSelect && !can(0) {
		return "the dealer waits for a block after the stop"
	}
	for j := range c.consumers {
		if s.r[j].pc == rWait && (s.latch != latchNone || s.closed) && !can(int8(1+j)) {
			return fmt.Sprintf("reader %d waits after the stop or the end", j)
		}
	}
	if len(enabled) == 0 {
		if s.dpc != dDone {
			return "deadlock: the dealer never returns"
		}
		for j := range c.consumers {
			if s.r[j].pc != rEnded {
				return fmt.Sprintf("deadlock: reader %d never ends", j)
			}
		}
		if s.dblk >= 0 {
			return "the dealer returned holding a block, which Release would hand back in use"
		}
	}
	return ""
}

// explore walks every state reachable from the start, returning the number
// of states and the first violation with the steps that led to it.
func (c *modelCase) explore() (int, error) {
	visited := map[mstate]bool{}
	var path []step
	var walk func(s mstate) error
	walk = func(s mstate) error {
		if visited[s] {
			return nil
		}
		visited[s] = true
		var buf [2 * (1 + maxC)]step
		enabled := c.steps(&s, buf[:0])
		if v := c.check(&s, enabled); v != "" {
			return fmt.Errorf("%s after %v", v, path)
		}
		for _, st := range enabled {
			next := s
			if _, v := c.apply(&next, st); v != "" {
				return fmt.Errorf("%s after %v", v, append(path, st))
			}
			path = append(path, st)
			if err := walk(next); err != nil {
				return err
			}
			path = path[:len(path)-1]
		}
		return nil
	}
	err := walk(c.start())
	return len(visited), err
}

// modelCases is the bounded schedule: one to three consumers of depth one
// or two, every token count — none only for one consumer, the final
// merge's pipe —, up to six blocks of the source, ending or failing after
// each length, with a reader's stop possible at every point when it ends.
func modelCases() []modelCase {
	var cases []modelCase
	for consumers := 1; consumers <= maxC; consumers++ {
		for depth := 1; depth <= maxD; depth++ {
			for tokens := min(consumers-1, 1); tokens <= consumers; tokens++ {
				for elems := 0; elems <= (6-1)*modelBlockLen+1; elems++ {
					if consumers == 3 && elems%2 == 0 && elems > 2 {
						continue // the odd lengths have a partial block too
					}
					for _, fails := range []bool{false, true} {
						cases = append(cases, modelCase{consumers: consumers, depth: depth, tokens: tokens, elems: elems, fails: fails, stops: !fails})
					}
				}
			}
		}
	}
	return cases
}

// TestFeedModel checks the feed's protocol in every interleaving of the
// bounded schedule, and that each planted bug breaks an invariant there. In
// every state: every block is in exactly one place, its consumer's, so at
// most depth are in flight to a consumer; a reader waiting for a block
// holds no compute token; no party waits after the stop or the end. A
// reader serves its blocks in the order dealt; io.EOF follows every element
// of the source; a failure follows every block queued to the reader before
// it saw it, and the source's failure every element read before it. No
// element read after a stop is dealt. Every schedule ends with every party
// done and the dealer holding no block, so Release sees each block once.
func TestFeedModel(t *testing.T) {
	states := 0
	for _, c := range modelCases() {
		n, err := c.explore()
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		states += n
	}
	t.Logf("%d states", states)
	for _, mut := range []mutation{dealAfterLatch, keepToken, stopNoRelease, dropPartial} {
		caught := false
		for _, c := range modelCases() {
			if c.mut = mut; c.tokens == 0 && mut == keepToken {
				continue
			}
			if _, err := c.explore(); err != nil {
				caught = true
				break
			}
		}
		if !caught {
			t.Errorf("%s breaks no invariant of the model", [...]string{dealAfterLatch: "a deal after the latch",
				keepToken: "a waiting reader keeping its token", stopNoRelease: "a stop not releasing the dealer",
				dropPartial: "dropping the partial block"}[mut])
		}
	}
}

// TestFeedMatchesModel runs the channel implementation on random schedules
// of the model's cases: DealFrom over a scripted source served one read at
// a time, and readers that start, read or stop one step at a time, each on
// a goroutine of its own. After each step it takes the model's steps that
// follow from it, waits for what they show — a read of the source, the
// dealer returning, a reader's result — and holds it to the model's; then,
// once every goroutine of the schedule waits on a channel, it holds the
// feed's queues and free compute tokens to the model's. At the end Release
// must hand back each block once.
func TestFeedMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := modelCases()
	for range 1000 {
		c := cases[rng.Intn(len(cases))]
		if err := runSchedule(c, rng); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
	}
}

var errModelSource = errors.New("the source failed")

// harness runs one schedule of c against a Feed.
type harness struct {
	c      modelCase
	s      mstate
	feed   *Feed[int]
	sem    chan struct{}
	gate   chan sourceRead   // the dealer's source: reads to serve
	events chan event        // every party's shown steps, with room for all of one step's
	cmds   []chan int8       // per reader: cmdRead, cmdStop or cmdStart
	stops  []error           // per reader: the failure it stops the feed with
	pend   [1 + maxC][]event // per party: shown by the model, not yet by the feed
}

const (
	cmdRead = iota
	cmdStop
	cmdStart
)

type sourceRead struct {
	vals []int
	err  error
}

// modelSource is the scripted source: each read shows the length it asks
// for and returns what the harness serves it.
type modelSource struct{ h *harness }

func (m modelSource) ReadBatch(dst []int) (int, error) {
	m.h.events <- event{0, evGate, int8(len(dst)), 0}
	r := <-m.h.gate
	return copy(dst, r.vals), r.err
}

func runSchedule(c modelCase, rng *rand.Rand) error {
	var allocated [][]int
	h := &harness{c: c, s: c.start(), gate: make(chan sourceRead), events: make(chan event, 16)}
	h.feed = NewFeed(c.consumers, c.depth, modelBlockLen, func(n int) []int {
		allocated = append(allocated, make([]int, 0, n))
		return allocated[len(allocated)-1]
	})
	if c.tokens > 0 {
		h.sem = make(chan struct{}, c.tokens)
	}
	for j := range c.consumers {
		h.cmds = append(h.cmds, make(chan int8))
		h.stops = append(h.stops, fmt.Errorf("reader %d stopped", j))
	}
	for j := range c.consumers {
		go h.reader(j)
	}
	defer func() {
		for _, cmd := range h.cmds {
			close(cmd)
		}
	}()
	go func() {
		h.feed.DealFrom(modelSource{h})
		h.events <- event{0, evReturned, 0, 0}
	}()
	if err := h.settle(); err != nil {
		return err
	}
	for {
		// A stop is one choice in eight of the others, so that most
		// schedules run for a while before one.
		var enabled []step
		for _, st := range c.steps(&h.s, nil) {
			if !c.external(&h.s, st) {
				continue
			}
			weight := 8
			if st.party > 0 && h.s.r[st.party-1].pc == rIdle && st.opt == cmdStop {
				weight = 1
			}
			for range weight {
				enabled = append(enabled, st)
			}
		}
		if len(enabled) == 0 {
			break
		}
		st := enabled[rng.Intn(len(enabled))]
		if st.party == 0 {
			h.serve()
		} else if h.s.r[st.party-1].pc == rStart {
			h.cmds[st.party-1] <- cmdStart
		} else {
			h.cmds[st.party-1] <- st.opt // cmdRead or cmdStop
		}
		ev, v := c.apply(&h.s, st)
		if v != "" {
			return fmt.Errorf("the model: %s", v)
		}
		h.expect(ev)
		if err := h.settle(); err != nil {
			return err
		}
	}
	if v := c.check(&h.s, nil); v != "" {
		return fmt.Errorf("the model: %s", v)
	}
	seen := map[*int]int{}
	h.feed.Release(func(b []int) { seen[&b[:1][0]]++ })
	for _, b := range allocated {
		if seen[&b[:1][0]] != 1 {
			return fmt.Errorf("Release handed back a block %d times", seen[&b[:1][0]])
		}
	}
	if len(seen) != len(allocated) {
		return fmt.Errorf("Release handed back %d blocks, the feed allocated %d", len(seen), len(allocated))
	}
	return nil
}

// serve answers the dealer's pending read of the source as the model's
// next read does.
func (h *harness) serve() {
	s := h.s
	if k := min(modelBlockLen-s.dlen, int8(h.c.elems)-s.pos); k > 0 {
		vals := make([]int, k)
		for i := range vals {
			vals[i] = int(s.pos) + i
		}
		h.gate <- sourceRead{vals: vals}
	} else if h.c.fails {
		h.gate <- sourceRead{err: errModelSource}
	} else {
		h.gate <- sourceRead{err: io.EOF}
	}
}

func (h *harness) expect(ev event) {
	if ev.kind != evNone {
		h.pend[ev.party] = append(h.pend[ev.party], ev)
	}
}

// settle takes the model's internal steps until only harness steps are
// left, then waits for the feed to show what they show and for its queues
// and free tokens to be the model's. Where readers compete for fewer free
// tokens than they want, the feed decides which takes one.
func (h *harness) settle() error {
	c := &h.c
	for {
		var internal, reacq []step
		for _, st := range c.steps(&h.s, nil) {
			switch {
			case c.external(&h.s, st):
			case st.party > 0 && h.s.r[st.party-1].pc == rReacq && c.wantsToken(&h.s.r[st.party-1]):
				reacq = append(reacq, st)
			default:
				internal = append(internal, st)
			}
		}
		if len(reacq) > int(h.s.tokens) && len(internal) == 0 {
			ev, err := h.next()
			if err == nil {
				err = h.match(ev, reacq)
			}
			if err != nil {
				return err
			}
			continue
		}
		internal = append(internal, reacq...)
		if len(internal) == 0 {
			break
		}
		ev, v := c.apply(&h.s, internal[0])
		if v != "" {
			return fmt.Errorf("the model: %s", v)
		}
		h.expect(ev)
	}
	for p := range h.pend {
		for len(h.pend[p]) > 0 {
			ev, err := h.next()
			if err == nil {
				err = h.match(ev, nil)
			}
			if err != nil {
				return err
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); !scheduleBlocked(); time.Sleep(10 * time.Microsecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("the feed's goroutines never all waited, in the model's state %+v", h.s)
		}
	}
	select {
	case ev := <-h.events:
		return fmt.Errorf("the feed showed %+v, which the model does not, in state %+v", ev, h.s)
	default:
	}
	if h.sem != nil && cap(h.sem)-len(h.sem) != int(h.s.tokens) {
		return fmt.Errorf("%d compute tokens are free, the model's state %+v has %d", cap(h.sem)-len(h.sem), h.s, h.s.tokens)
	}
	for i := range h.c.consumers {
		if len(h.feed.full[i]) != int(h.s.full[i].n) || len(h.feed.free[i]) != int(h.s.free[i].n) {
			return fmt.Errorf("consumer %d's queues hold %d blocks dealt and %d free, the model's state %+v has %d and %d",
				i, len(h.feed.full[i]), len(h.feed.free[i]), h.s, h.s.full[i].n, h.s.free[i].n)
		}
	}
	return nil
}

// scheduleBlocked reports whether every goroutine of the schedule — the
// dealer and the readers — waits on a channel, so that nothing changes
// until the harness takes its next step.
func scheduleBlocked() bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "stream.(*harness).reader") && !strings.Contains(g, "stream.runSchedule.func") {
			continue
		}
		state, _, _ := strings.Cut(g[strings.Index(g, "[")+1:], "]")
		if state, _, _ = strings.Cut(state, ","); state != "chan receive" && state != "chan send" && state != "select" {
			return false
		}
	}
	return true
}

// next waits for the feed's next shown step.
func (h *harness) next() (event, error) {
	select {
	case ev := <-h.events:
		return ev, nil
	case <-time.After(5 * time.Second):
		return event{}, fmt.Errorf("the feed showed nothing more, the model expects %v in state %+v", h.pend, h.s)
	}
}

// match holds ev, shown by the feed, to the step the model showed first for
// its party, or, when the model has shown none, to that reader's token
// reacquire among choices.
func (h *harness) match(ev event, choices []step) error {
	if len(h.pend[ev.party]) == 0 {
		for _, st := range choices {
			if st.party == ev.party {
				mev, v := h.c.apply(&h.s, st)
				if v != "" {
					return fmt.Errorf("the model: %s", v)
				}
				h.expect(mev)
				return h.match(ev, nil)
			}
		}
		return fmt.Errorf("the feed showed %+v, which the model does not, in state %+v", ev, h.s)
	}
	if want := h.pend[ev.party][0]; ev != want {
		return fmt.Errorf("the feed showed %+v, the model %+v, in state %+v", ev, want, h.s)
	}
	h.pend[ev.party] = h.pend[ev.party][1:]
	return nil
}

// reader is reader j's goroutine: as commanded it takes a compute token to
// start, reads once into a block's length, or stops the feed, showing each
// result; like a lane, it gives its token back once it ends.
func (h *harness) reader(j int) {
	p := int8(1 + j)
	r := h.feed.Reader(j, h.sem)
	dst := make([]int, modelBlockLen)
	end := func(latch int8) event {
		if h.sem != nil {
			<-h.sem
		}
		return event{p, evEnded, latch, 0}
	}
	for cmd := range h.cmds[j] {
		switch cmd {
		case cmdStart:
			h.sem <- struct{}{}
			h.events <- event{p, evStarted, 0, 0}
		case cmdStop:
			h.feed.Stop(h.stops[j])
			end(0)
			h.events <- event{p, evStopped, 0, 0}
		case cmdRead:
			n, err := readOne(r, dst)
			ev := event{p, evServed, -1, int8(n)} // an error matching nothing
			switch {
			case err == nil && n > 0 && dst[n-1] == dst[0]+n-1:
				ev.a = int8(dst[0])
			case err == io.EOF:
				ev = end(latchNone)
			case err == errModelSource:
				ev = end(latchSource)
			default:
				for k, stop := range h.stops {
					if err == stop {
						ev = end(latchStop + int8(k))
					}
				}
			}
			h.events <- ev
		}
	}
}

// readOne reads once, turning a panic into an error.
func readOne(r *FeedReader[int], dst []int) (n int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("ReadBatch panicked: %v", p)
		}
	}()
	return r.ReadBatch(dst)
}
