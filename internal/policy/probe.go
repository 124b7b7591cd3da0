package policy

// The probe reduces a sample of the input to a handful of comparator-only
// order statistics, and the decision rules map those statistics to the
// generator expected to produce the fewest (or cheapest) runs. Everything
// here needs only the sorter's `less`: no key projection, no numeric
// assumptions.

// Stats summarises the order structure of a sample of consecutive input
// elements.
type Stats struct {
	// N is the sample size.
	N int
	// AscFrac is the fraction of adjacent steps that do not descend;
	// DescFrac is 1 − AscFrac. A near-1 AscFrac means locally ascending.
	AscFrac, DescFrac float64
	// Zigzag is the fraction of adjacent step pairs whose directions
	// differ. Two interleaved monotone trends (the paper's mixed datasets)
	// push it towards 1; iid random input sits near 2/3; long monotone
	// sections push it towards 0.
	Zigzag float64
	// AvgMono is the mean length of maximal monotone segments: large for
	// sectioned inputs (the alternating dataset), ≈2 for random input.
	AvgMono float64
	// InvRatio estimates the inversion ratio — the probability that a
	// random earlier/later pair is out of order — on an evenly spaced
	// subsample. 0 is sorted, 1 reverse sorted, ≈0.5 random. Unlike the
	// step statistics it sees global drift: a descending staircase of
	// ascending teeth has AscFrac ≈ 1 but InvRatio ≈ 1.
	InvRatio float64
}

// invSample bounds the inversion-ratio subsample; counting pairs is
// quadratic, so the subsample keeps Measure at ~130k comparisons no matter
// the probe size.
const invSample = 512

// Measure computes order statistics over vals under less.
func Measure[T any](vals []T, less func(a, b T) bool) Stats {
	st := Stats{N: len(vals)}
	if len(vals) < 2 {
		return st
	}
	steps := len(vals) - 1
	asc, flips, pairs, mono := 0, 0, 0, 1
	prevDir := 0
	for i := 1; i < len(vals); i++ {
		dir := 1
		if less(vals[i], vals[i-1]) {
			dir = -1
		}
		if dir == 1 {
			asc++
		}
		if prevDir != 0 {
			pairs++
			if dir != prevDir {
				flips++
				mono++
			}
		}
		prevDir = dir
	}
	st.AscFrac = float64(asc) / float64(steps)
	st.DescFrac = 1 - st.AscFrac
	if pairs > 0 {
		st.Zigzag = float64(flips) / float64(pairs)
	}
	st.AvgMono = float64(len(vals)) / float64(mono)

	// Spread the subsample across the whole sample: index i maps to
	// i·(N−1)/(k−1), so the first and last elements are always included and
	// global drift is visible even when k ≪ N.
	k := len(vals)
	if k > invSample {
		k = invSample
	}
	at := func(i int) T { return vals[i*(len(vals)-1)/(k-1)] }
	inv, tot := 0, 0
	for i := 0; i < k; i++ {
		vi := at(i)
		for j := i + 1; j < k; j++ {
			tot++
			if less(at(j), vi) {
				inv++
			}
		}
	}
	if tot > 0 {
		st.InvRatio = float64(inv) / float64(tot)
	}
	return st
}

// choose maps order statistics to the fixed policy expected to generate
// the longest runs, per the cost model of DESIGN.md §9. down reports the
// preferred first direction for the Alternating policy. When no rule
// fires, TwoWayRS is the safe generalist.
func choose(st Stats) (kind Kind, down bool) {
	switch {
	case st.N < 2:
		// Nothing to learn; 2WRS is never catastrophic.
		return TwoWayRS, false
	case st.InvRatio <= 0.05 && st.AscFrac >= 0.5:
		// Globally (nearly) sorted: RS emits one near-total run with the
		// smallest constant factor.
		return RS, false
	case st.InvRatio >= 0.95 || st.DescFrac >= 0.90:
		// Globally (nearly) reverse sorted: a down-run swallows the trend
		// whole; classic RS would fragment it into memory-sized runs.
		return Alternating, true
	case st.AscFrac >= 0.90 && st.InvRatio >= 0.30:
		// Locally ascending but globally drifting down — a descending
		// staircase of ascending teeth, the classic RS killer. Down-runs
		// ride the macro trend.
		return Alternating, true
	case st.AscFrac >= 0.90:
		return RS, false
	case st.Zigzag >= 0.90:
		// Two interleaved monotone trends (the mixed datasets): exactly
		// what the double heap separates.
		return TwoWayRS, false
	case st.AvgMono >= 16 && st.AscFrac >= 0.15 && st.DescFrac >= 0.15:
		// Long monotone sections in both directions (the alternating
		// dataset): the double heap extends runs across section
		// boundaries in either direction.
		return TwoWayRS, false
	default:
		// Random or unrecognised: the paper's §5.3 recommendation.
		return TwoWayRS, false
	}
}
