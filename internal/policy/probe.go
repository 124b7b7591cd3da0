package policy

// The probe reduces a sample of the input to a handful of comparator-only
// order statistics, which classify maps to a row of Auto's cost table.
// Everything here needs only the sorter's `less`: no key projection, no
// numeric assumptions.

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
