package policy

import (
	"math"

	"repro/internal/merge"
)

// Auto runs the fixed policy it prices cheapest for the input it probed:
// generation, per record from a checked-in table, plus the merge the
// policy's runs need, priced with the merge's own pass predictor. DESIGN.md
// §9 has the rule, the table and its provenance.

// shape is the order structure the probe recognises: a row of the table.
type shape int

const (
	unordered   shape = iota // random, or nothing the probe recognises
	ascending                // sorted, or locally ascending and rising
	descending               // reverse sorted, or drifting down globally
	interleaved              // two interleaved monotone trends
	sectioned                // long monotone sections in both directions
)

// classify maps the probe's statistics to a shape, and reports whether a
// descending trend leads, which is the way Alternating opens.
func classify(st Stats) (s shape, down bool) {
	switch {
	case st.N < 2:
		return unordered, false
	case st.InvRatio <= 0.05 && st.AscFrac >= 0.5:
		return ascending, false
	case st.InvRatio >= 0.95 || st.DescFrac >= 0.90 || (st.AscFrac >= 0.90 && st.InvRatio >= 0.30):
		return descending, true // a descending staircase of ascending teeth too
	case st.AscFrac >= 0.90:
		return ascending, false
	case st.Zigzag >= 0.90:
		return interleaved, false
	case st.AvgMono >= 16 && st.AscFrac >= 0.15 && st.DescFrac >= 0.15:
		return sectioned, false
	}
	return unordered, false
}

// cost is a cell of the table: generation's ns per record at a lane of 2^15
// elements, spill writes included, for fixed-width (Record16) and
// variable-width (string) elements, and the run length over the lane's
// memory (+Inf: one run per lane).
type cost struct{ fixed, varw, mult float64 }

var one = math.Inf(1)

// costs is the table, [shape][Kind]: constants, never run-time timings, so
// that a durable sort decides alike when a resume replays it. It is what
//
//	go test ./internal/policy -run '^$' -bench Calibrate -benchtime 1x
//
// printed on 2 shared Xeon cores (page-cache spill), except that where the
// probe sees no structure the multiples are Bender et al.'s (RS 2, up/down
// runs 1.5; PAPERS.md), not the measured 1.78, 1.88 and 1.45.
var costs = [...][Auto]cost{
	unordered:   {TwoWayRS: {226, 1036, 2}, RS: {83, 406, 2}, Alternating: {91, 417, 1.5}, Quick: {33, 279, 1}},
	ascending:   {TwoWayRS: {141, 465, one}, RS: {21, 57, one}, Alternating: {21, 59, one}, Quick: {33, 50, 1}},
	descending:  {TwoWayRS: {129, 478, one}, RS: {65, 254, 1}, Alternating: {25, 65, one}, Quick: {35, 157, 1}},
	interleaved: {TwoWayRS: {65, 618, 10.7}, RS: {77, 307, 2}, Alternating: {84, 313, 1.88}, Quick: {35, 145, 1}},
	sectioned:   {TwoWayRS: {167, 722, 1.78}, RS: {87, 373, 1.78}, Alternating: {87, 389, 1.45}, Quick: {44, 125, 1}},
}

// mergeCost is the merge's ns per record, fixed- and variable-width: pass
// for each pass after the first (every policy pays the first), log for each
// doubling of the runs (a level of the loser tree). Same calibration.
var mergeCost = [2]struct{ pass, log float64 }{{15.7, 3.2}, {76.5, 24.8}}

// assumedLoads is the input length, in memory-loads, a source that does not
// report its length is priced at: the thesis' largest N/M.
const assumedLoads = 256

// Sizing is what Auto prices a sort by besides its input.
type Sizing struct {
	// Memory is the budget in elements: the probe's length.
	Memory int
	// Lanes is how many generators share it side by side (0 means 1).
	Lanes int
	// Merge is the merge the runs go to, whose passes it predicts.
	Merge merge.Config
}

// cheapest returns the fixed policy priced lowest for n elements (n ≤ 0:
// unknown) of shape sh; ties go to the earlier in Kinds. A policy's runs are
// L·⌈n/(L·mult·H)⌉ for L lanes of H = M/L elements.
func (z Sizing) cheapest(sh shape, n int64, varw bool) Kind {
	if n <= 0 {
		n = assumedLoads * int64(z.Memory)
	}
	m, lanes := mergeCost[0], float64(max(z.Lanes, 1))
	if varw {
		m = mergeCost[1]
	}
	best, bestCost := TwoWayRS, math.Inf(1)
	for _, k := range Kinds[:Auto] {
		c := costs[sh][k]
		gen := c.fixed
		if varw {
			gen = c.varw
		}
		runs := lanes * max(1, math.Ceil(float64(n)/(c.mult*float64(z.Memory))))
		passes := z.Merge.Passes(int(runs))
		if t := gen + float64(max(passes-1, 0))*m.pass + math.Log2(runs)*m.log; t < bestCost {
			best, bestCost = k, t
		}
	}
	return best
}
