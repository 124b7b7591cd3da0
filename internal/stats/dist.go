// Package stats implements the probability distributions and descriptive
// statistics behind the paper's ANOVA analysis (Appendix B): the regularized
// incomplete beta function, F and normal CDFs, the noncentral F
// distribution (for the "Power" column of the thesis tables), and the
// studentized range distribution (for Tukey's HSD tests).
//
// The paper used SPSS; this package is the from-scratch substitute.
package stats

import (
	"fmt"
	"math"
)

// NormalCDF returns P(Z ≤ z) for a standard normal Z.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalPDF returns the standard normal density at z.
func NormalPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b),
// computed with the continued-fraction expansion (Lentz's algorithm), the
// standard numerical approach.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	// Symmetry: the continued fraction converges fast for x < (a+1)/(a+b+2).
	if x > (a+1)/(a+b+2) {
		return 1 - RegIncBeta(b, a, 1-x)
	}
	lbeta, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	front := math.Exp(math.Log(x)*a+math.Log(1-x)*b+lbeta-la-lb) / a

	// Modified Lentz's method for the continued fraction.
	const (
		maxIter = 500
		eps     = 1e-14
		tiny    = 1e-300
	)
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= maxIter; i++ {
		m := float64(i / 2)
		var numerator float64
		switch {
		case i == 0:
			numerator = 1
		case i%2 == 0:
			numerator = m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		default:
			numerator = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		}
		d = 1 + numerator*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + numerator/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		f *= c * d
		if math.Abs(1-c*d) < eps {
			break
		}
	}
	return front * (f - 1)
}

// FCDF returns P(F ≤ x) for an F distribution with d1 and d2 degrees of
// freedom.
func FCDF(x, d1, d2 float64) float64 {
	if x <= 0 {
		return 0
	}
	return RegIncBeta(d1/2, d2/2, d1*x/(d1*x+d2))
}

// FSig returns the significance (right-tail p-value) of an observed F
// statistic.
func FSig(f, d1, d2 float64) float64 {
	return 1 - FCDF(f, d1, d2)
}

// FQuantile returns the x with FCDF(x, d1, d2) = p, found by bisection.
func FQuantile(p, d1, d2 float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	lo, hi := 0.0, 1.0
	for FCDF(hi, d1, d2) < p {
		hi *= 2
		if hi > 1e12 {
			return math.NaN()
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if FCDF(mid, d1, d2) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// NoncentralFCDF returns P(F ≤ x) for a noncentral F distribution with
// noncentrality λ, via the Poisson mixture of incomplete betas.
func NoncentralFCDF(x, d1, d2, lambda float64) float64 {
	if x <= 0 {
		return 0
	}
	if lambda <= 0 {
		return FCDF(x, d1, d2)
	}
	y := d1 * x / (d1*x + d2)
	// Poisson weights around j ≈ λ/2; sum until the tail is negligible.
	half := lambda / 2
	logw := -half // log weight at j=0
	sum := 0.0
	cum := 0.0
	for j := 0; j < 10000; j++ {
		w := math.Exp(logw)
		sum += w * RegIncBeta(d1/2+float64(j), d2/2, y)
		cum += w
		if cum > 1-1e-12 && float64(j) > half {
			break
		}
		logw += math.Log(half) - math.Log(float64(j+1))
	}
	return sum
}

// FTestPower returns the observed power of an F test at significance level
// alpha: the probability that a noncentral F with the observed noncentrality
// exceeds the central critical value (SPSS's "observed power" column).
func FTestPower(alpha, d1, d2, lambda float64) float64 {
	crit := FQuantile(1-alpha, d1, d2)
	return 1 - NoncentralFCDF(crit, d1, d2, lambda)
}

// StudentizedRangeCDF returns P(Q ≤ q) for the studentized range of k
// groups. For the large error degrees of freedom of the paper's designs
// (thousands of observations) the infinite-df form is accurate:
//
//	P(Q ≤ q) = k ∫ φ(z) [Φ(z) − Φ(z−q)]^{k−1} dz
//
// evaluated with Simpson's rule; finite df would add an outer integral that
// changes the third decimal at df > 100.
func StudentizedRangeCDF(q float64, k int) float64 {
	if q <= 0 {
		return 0
	}
	if k < 2 {
		return 1
	}
	const (
		zLo   = -8.0
		steps = 2000 // even
	)
	zHi := 8.0 + q
	h := (zHi - zLo) / steps
	f := func(z float64) float64 {
		d := NormalCDF(z) - NormalCDF(z-q)
		if d <= 0 {
			return 0
		}
		return NormalPDF(z) * math.Pow(d, float64(k-1))
	}
	sum := f(zLo) + f(zHi)
	for i := 1; i < steps; i++ {
		z := zLo + float64(i)*h
		if i%2 == 1 {
			sum += 4 * f(z)
		} else {
			sum += 2 * f(z)
		}
	}
	p := float64(k) * sum * h / 3
	if p > 1 {
		p = 1
	}
	return p
}

// TukeySig returns the p-value of a Tukey HSD comparison: the probability
// that the studentized range of k groups exceeds q.
func TukeySig(q float64, k int) float64 {
	return 1 - StudentizedRangeCDF(q, k)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 when len < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// Histogram bins xs into `bins` equal-width buckets over [lo, hi], clamping
// out-of-range values into the edge buckets. It returns the counts and the
// bucket centres, the form Figures 5.7/5.10 plot.
func Histogram(xs []float64, lo, hi float64, bins int) (counts []int, centers []float64, err error) {
	if bins <= 0 || hi <= lo {
		return nil, nil, fmt.Errorf("stats: invalid histogram range [%v,%v)/%d", lo, hi, bins)
	}
	counts = make([]int, bins)
	centers = make([]float64, bins)
	w := (hi - lo) / float64(bins)
	for i := range centers {
		centers[i] = lo + w*(float64(i)+0.5)
	}
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return counts, centers, nil
}
