// Package core implements two-way replacement selection (2WRS), the paper's
// primary contribution (Chapter 4 of the thesis).
//
// 2WRS generalises replacement selection with:
//
//   - a DoubleHeap: a min TopHeap for the ascending output frontier and a
//     max BottomHeap for the descending one, sharing one memory arena;
//   - an input buffer: a read-ahead FIFO whose contents let insertion
//     heuristics estimate the input distribution;
//   - a victim buffer: a small sorted pool capturing records that fall in
//     the gap between the two frontiers, flushed to two extra streams when
//     full;
//   - four output streams per run (1: ascending from the TopHeap,
//     4: descending from the BottomHeap, 3 ascending / 2 descending from
//     victim flushes) whose concatenation rev(4)+3+rev(2)+1 is the sorted
//     run.
//
// Implementation note (documented in DESIGN.md): the thesis describes
// insertion eligibility informally ("records greater than those already
// output"). This implementation enforces the global run-order invariant with
// two running frontiers — maxBelow, the largest key written to streams 2, 3
// or 4, and minAbove, the smallest key written to streams 1, 2 or 3 — and
// additionally re-tags a popped record for the next run when it can no
// longer be placed on any stream of the current run, which can happen when a
// fill-phase heuristic guesses the division point badly. On the paper's
// structured datasets this corrective path is essentially never taken; on
// adversarial ones it preserves correctness.
package core

import (
	"fmt"
	"strings"
)

// InputHeuristic selects which heap stores a record when both are eligible
// (§4.2).
type InputHeuristic int

// The six input heuristics of the thesis, plus TopOnly, the degenerate
// heuristic of Theorem 7 that makes 2WRS behave exactly like RS.
const (
	InRandom InputHeuristic = iota
	InAlternate
	InMean
	InMedian
	InUseful
	InBalancing
	InTopOnly
)

// InputHeuristics lists the factorial-experiment levels in thesis order
// (TopOnly is intentionally excluded: it is not one of the paper's levels).
var InputHeuristics = []InputHeuristic{InRandom, InAlternate, InMean, InMedian, InUseful, InBalancing}

var inputNames = map[InputHeuristic]string{
	InRandom:    "random",
	InAlternate: "alternate",
	InMean:      "mean",
	InMedian:    "median",
	InUseful:    "useful",
	InBalancing: "balancing",
	InTopOnly:   "toponly",
}

// String returns the heuristic's CLI name, the one ParseInputHeuristic
// resolves.
func (h InputHeuristic) String() string {
	if n, ok := inputNames[h]; ok {
		return n
	}
	return fmt.Sprintf("InputHeuristic(%d)", int(h))
}

// ParseInputHeuristic resolves a CLI name.
func ParseInputHeuristic(s string) (InputHeuristic, error) {
	for h, n := range inputNames {
		if strings.EqualFold(s, n) {
			return h, nil
		}
	}
	return 0, fmt.Errorf("core: unknown input heuristic %q", s)
}

// OutputHeuristic selects which heap releases the next output record (§4.2).
type OutputHeuristic int

// The five output heuristics of the thesis.
const (
	OutRandom OutputHeuristic = iota
	OutAlternate
	OutUseful
	OutBalancing
	OutMinDistance
)

// OutputHeuristics lists the factorial-experiment levels in thesis order.
var OutputHeuristics = []OutputHeuristic{OutRandom, OutAlternate, OutUseful, OutBalancing, OutMinDistance}

var outputNames = map[OutputHeuristic]string{
	OutRandom:      "random",
	OutAlternate:   "alternate",
	OutUseful:      "useful",
	OutBalancing:   "balancing",
	OutMinDistance: "mindistance",
}

// String returns the heuristic's CLI name, the one ParseOutputHeuristic
// resolves.
func (h OutputHeuristic) String() string {
	if n, ok := outputNames[h]; ok {
		return n
	}
	return fmt.Sprintf("OutputHeuristic(%d)", int(h))
}

// ParseOutputHeuristic resolves a CLI name.
func ParseOutputHeuristic(s string) (OutputHeuristic, error) {
	for h, n := range outputNames {
		if strings.EqualFold(s, n) {
			return h, nil
		}
	}
	return 0, fmt.Errorf("core: unknown output heuristic %q", s)
}

// BufferSetup is the α factor of the thesis' factorial experiment: which of
// the two auxiliary buffers exist.
type BufferSetup int

// Buffer setups in thesis level order (i = 0, 1, 2).
const (
	InputBufferOnly BufferSetup = iota
	BothBuffers
	VictimBufferOnly
)

// BufferSetups lists the factorial-experiment levels in thesis order.
var BufferSetups = []BufferSetup{InputBufferOnly, BothBuffers, VictimBufferOnly}

var setupNames = map[BufferSetup]string{
	InputBufferOnly:  "input",
	BothBuffers:      "both",
	VictimBufferOnly: "victim",
}

// String returns the setup's CLI name, the one ParseBufferSetup resolves.
func (s BufferSetup) String() string {
	if n, ok := setupNames[s]; ok {
		return n
	}
	return fmt.Sprintf("BufferSetup(%d)", int(s))
}

// ParseBufferSetup resolves a CLI name.
func ParseBufferSetup(s string) (BufferSetup, error) {
	for b, n := range setupNames {
		if strings.EqualFold(s, n) {
			return b, nil
		}
	}
	return 0, fmt.Errorf("core: unknown buffer setup %q", s)
}

// Config parameterises one 2WRS execution.
type Config struct {
	// Memory is the total memory budget in records, shared by the double
	// heap, the input buffer and the victim buffer — constant across
	// configurations, as in the thesis.
	Memory int
	// Setup selects which auxiliary buffers exist.
	Setup BufferSetup
	// BufferFrac is the fraction of Memory dedicated to the enabled
	// buffers (thesis levels: 0.0002, 0.002, 0.02, 0.2). When both buffers
	// are enabled the budget is split evenly between them.
	BufferFrac float64
	// Input decides which heap stores a record both could take.
	Input InputHeuristic
	// Output decides which heap releases the next record when both can.
	Output OutputHeuristic
	// Seed drives the Random heuristics and MinDistance's first pick.
	Seed int64
}

// Recommended returns the configuration §5.3 recommends for unknown inputs:
// both buffers, 2% of memory for buffers, Mean input, Random output.
func Recommended(memory int) Config {
	return Config{
		Memory:     memory,
		Setup:      BothBuffers,
		BufferFrac: 0.02,
		Input:      InMean,
		Output:     OutRandom,
	}
}

// For returns c as the configuration of a generator with the given memory
// budget: the zero Config means Recommended, and Memory is always the
// budget's. The rule is written here, beside Recommended, because both the
// sort driver's resolver (extsort.Config.Resolved) and the policy layer
// below it apply it.
func (c Config) For(memory int) Config {
	if c == (Config{}) {
		return Recommended(memory)
	}
	c.Memory = memory
	return c
}

// sizes returns the derived component sizes: input FIFO, victim buffer and
// heap arena capacities, all in records.
func (c Config) sizes() (inputBuf, victimBuf, heapArena int, err error) {
	if c.Memory < 3 {
		return 0, 0, 0, fmt.Errorf("core: memory of %d records is too small (need ≥ 3)", c.Memory)
	}
	if c.BufferFrac < 0 || c.BufferFrac >= 1 {
		return 0, 0, 0, fmt.Errorf("core: buffer fraction %v out of [0, 1)", c.BufferFrac)
	}
	total := int(float64(c.Memory)*c.BufferFrac + 0.5)
	switch c.Setup {
	case InputBufferOnly:
		inputBuf = total
	case VictimBufferOnly:
		victimBuf = total
	case BothBuffers:
		inputBuf = total / 2
		victimBuf = total - inputBuf
	default:
		return 0, 0, 0, fmt.Errorf("core: unknown buffer setup %d", int(c.Setup))
	}
	heapArena = c.Memory - inputBuf - victimBuf
	if heapArena < 1 {
		return 0, 0, 0, fmt.Errorf("core: buffer fraction %v leaves no heap memory", c.BufferFrac)
	}
	return inputBuf, victimBuf, heapArena, nil
}
