// Package policy turns run generation from a single hard-wired algorithm
// into a pluggable subsystem. It names the four concrete generator
// strategies the library implements — the paper's two-way replacement
// selection, classic replacement selection, alternating up/down runs
// (Bender et al., "Run Generation Revisited") and memory-sized quicksort
// batches — behind one per-run Generator interface, and adds Auto: a
// choice made once per input, which probes the order structure of a
// memory-sized prefix and runs the fixed generator it names over the whole
// input.
//
// The driver (internal/extsort) selects a policy through Config.Policy;
// the public API exposes it as repro.WithPolicy, with Auto as the generic
// constructor's default. DESIGN.md §9 documents the probe's statistics,
// the per-policy cost model and when each policy wins.
package policy

import (
	"fmt"
	"strings"
)

// Kind identifies a run-generation policy.
type Kind int

const (
	// TwoWayRS is the paper's two-way replacement selection: a double
	// heap releasing an ascending and a descending stream per run. The
	// generalist — no input shape degenerates it to memory-sized runs. It
	// is the zero value: a configuration that names no policy runs the
	// paper's algorithm.
	TwoWayRS Kind = iota
	// RS is classic replacement selection: one min-heap, ascending runs,
	// expected length 2M on random input, a single run on ascending input,
	// exactly M on descending input.
	RS
	// Alternating generates runs of alternating direction (Bender et al.):
	// up-runs as in RS, down-runs through a max-heap stored in the backward
	// format. Whichever way the input drifts, every other run travels with
	// it.
	Alternating
	// Quick generates memory-sized quicksort batches: the cheapest
	// generator per element, with run length pinned to exactly M. It is
	// the paper's Load-Sort-Store baseline (§2.1.1), which fills memory,
	// sorts it "with any internal sort" and stores it.
	Quick
	// Auto probes a memory-sized prefix of the input and runs whichever of
	// the four fixed policies the probe names, from the first record to
	// the last.
	Auto
)

// kindNames maps each policy to its CLI/config name.
var kindNames = map[Kind]string{
	TwoWayRS:    "2wrs",
	RS:          "rs",
	Alternating: "alternating",
	Quick:       "quick",
	Auto:        "auto",
}

// Kinds lists the selectable policies in presentation order.
var Kinds = []Kind{TwoWayRS, RS, Alternating, Quick, Auto}

// String returns the policy's CLI/config name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Names lists the valid policy names in presentation order, for CLI usage
// text and validation errors.
func Names() []string {
	out := make([]string, len(Kinds))
	for i, k := range Kinds {
		out[i] = k.String()
	}
	return out
}

// Parse resolves a policy name as accepted by configs and CLIs. Besides
// the names Names lists it accepts "alt" for "alternating", "lss" for
// "quick" (Load-Sort-Store is that generator) and the empty name for the
// zero Kind, 2wrs. Unknown names are rejected with an error listing every
// valid policy — never silently defaulted: the Kind returned with the
// error is not a valid one.
func Parse(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "":
		return TwoWayRS, nil
	case "alt":
		return Alternating, nil
	case "lss":
		return Quick, nil
	}
	for k, n := range kindNames {
		if strings.EqualFold(s, n) {
			return k, nil
		}
	}
	return -1, errUnknown(s)
}

// Validate rejects a Kind that is none of Kinds, with Parse's error.
func (k Kind) Validate() error {
	if _, ok := kindNames[k]; !ok {
		return errUnknown(k.String())
	}
	return nil
}

func errUnknown(name string) error {
	return fmt.Errorf("policy: unknown policy %q (valid policies: %s)", name, strings.Join(Names(), ", "))
}
