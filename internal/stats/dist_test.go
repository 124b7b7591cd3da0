package stats

import (
	"math"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (±%g)", what, got, want, tol)
	}
}

func TestNormalCDF(t *testing.T) {
	approx(t, NormalCDF(0), 0.5, 1e-12, "Φ(0)")
	approx(t, NormalCDF(1.959963985), 0.975, 1e-6, "Φ(1.96)")
	approx(t, NormalCDF(-1.959963985), 0.025, 1e-6, "Φ(-1.96)")
	approx(t, NormalCDF(3), 0.9986501, 1e-6, "Φ(3)")
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		approx(t, RegIncBeta(1, 1, x), x, 1e-12, "I_x(1,1)")
	}
	// I_x(2,2) = x^2(3-2x).
	for _, x := range []float64{0.2, 0.5, 0.8} {
		approx(t, RegIncBeta(2, 2, x), x*x*(3-2*x), 1e-10, "I_x(2,2)")
	}
	// Symmetry I_x(a,b) = 1 - I_{1-x}(b,a).
	approx(t, RegIncBeta(3.5, 1.25, 0.3)+RegIncBeta(1.25, 3.5, 0.7), 1, 1e-10, "symmetry")
	// Boundaries.
	approx(t, RegIncBeta(2, 3, 0), 0, 0, "I_0")
	approx(t, RegIncBeta(2, 3, 1), 1, 0, "I_1")
}

func TestFCDFAgainstTables(t *testing.T) {
	// Critical values from standard F tables: P(F ≤ crit) = 0.95.
	cases := []struct {
		d1, d2, crit float64
	}{
		{1, 10, 4.965},
		{5, 20, 2.711},
		{3, 120, 2.680},
		{10, 10, 2.978},
	}
	for _, c := range cases {
		approx(t, FCDF(c.crit, c.d1, c.d2), 0.95, 2e-3, "FCDF table value")
	}
}

func TestFQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		q := FQuantile(p, 4, 30)
		approx(t, FCDF(q, 4, 30), p, 1e-9, "FCDF(FQuantile)")
	}
	if FQuantile(0, 2, 2) != 0 {
		t.Error("FQuantile(0) should be 0")
	}
	if !math.IsInf(FQuantile(1, 2, 2), 1) {
		t.Error("FQuantile(1) should be +inf")
	}
}

func TestFSig(t *testing.T) {
	// A huge F is overwhelmingly significant.
	if sig := FSig(1000, 3, 100); sig > 1e-6 {
		t.Errorf("FSig(1000) = %g, want ≈0", sig)
	}
	// F = 1 is unremarkable.
	if sig := FSig(1, 3, 100); sig < 0.3 {
		t.Errorf("FSig(1) = %g, want large", sig)
	}
}

func TestNoncentralFReducesToCentral(t *testing.T) {
	for _, x := range []float64{0.5, 1, 2, 5} {
		approx(t, NoncentralFCDF(x, 3, 40, 0), FCDF(x, 3, 40), 1e-10, "λ=0 reduction")
	}
}

func TestNoncentralFShiftsRight(t *testing.T) {
	// Noncentrality pushes probability mass to larger values.
	central := NoncentralFCDF(2, 3, 40, 0)
	shifted := NoncentralFCDF(2, 3, 40, 10)
	if shifted >= central {
		t.Errorf("noncentral CDF %g should be below central %g at same x", shifted, central)
	}
}

func TestFTestPower(t *testing.T) {
	// Zero effect: power equals alpha.
	approx(t, FTestPower(0.05, 3, 100, 0), 0.05, 1e-6, "power at λ=0")
	// Huge effect: power ≈ 1 (the thesis tables show 1.000 everywhere).
	if p := FTestPower(0.05, 3, 100, 500); p < 0.999 {
		t.Errorf("power at λ=500 = %g, want ≈1", p)
	}
	// Monotone in λ.
	if FTestPower(0.05, 3, 100, 5) >= FTestPower(0.05, 3, 100, 20) {
		t.Error("power should grow with noncentrality")
	}
}

func TestStudentizedRangeAgainstTables(t *testing.T) {
	// q_{0.95}(k, ∞) from standard studentized-range tables:
	// k=2: 2.77, k=3: 3.31, k=5: 3.86, k=6: 4.03.
	cases := []struct {
		k   int
		q95 float64
	}{
		{2, 2.772},
		{3, 3.314},
		{5, 3.858},
		{6, 4.030},
	}
	for _, c := range cases {
		approx(t, StudentizedRangeCDF(c.q95, c.k), 0.95, 3e-3, "studentized range table")
	}
}

func TestStudentizedRangeEdges(t *testing.T) {
	if StudentizedRangeCDF(0, 3) != 0 {
		t.Error("P(Q ≤ 0) should be 0")
	}
	if StudentizedRangeCDF(5, 1) != 1 {
		t.Error("k=1 range is degenerate")
	}
	if p := StudentizedRangeCDF(100, 4); p < 0.999999 {
		t.Errorf("P(Q ≤ 100) = %g, want ≈1", p)
	}
	if TukeySig(2.772, 2) > 0.06 || TukeySig(2.772, 2) < 0.04 {
		t.Errorf("TukeySig(q95) = %g, want ≈0.05", TukeySig(2.772, 2))
	}
}

func TestDescriptives(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(xs), 5, 1e-12, "mean")
	approx(t, Variance(xs), 32.0/7.0, 1e-12, "variance")
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate descriptive stats wrong")
	}
}

func TestHistogram(t *testing.T) {
	counts, centers, err := Histogram([]float64{-10, 0.1, 0.2, 0.6, 10}, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 3 || counts[1] != 2 {
		t.Fatalf("counts = %v, want [3 2] (edges clamp)", counts)
	}
	approx(t, centers[0], 0.25, 1e-12, "center 0")
	approx(t, centers[1], 0.75, 1e-12, "center 1")
	if _, _, err := Histogram(nil, 1, 0, 2); err == nil {
		t.Error("inverted range should error")
	}
	if _, _, err := Histogram(nil, 0, 1, 0); err == nil {
		t.Error("zero bins should error")
	}
}
