// Package anova implements the fixed-effects factorial analysis of variance
// of Appendix B of the thesis: n-way models with interaction terms,
// minimum-least-squares and weighted-least-squares estimation, sequential
// sums of squares with F tests, significance and observed power, R² and
// coefficient-of-variation model quality measures, residual diagnostics and
// Tukey HSD pairwise comparisons.
//
// It replaces the SPSS runs behind Tables 5.2–5.12 of the thesis.
package anova

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Factor is a categorical explanatory variable.
type Factor struct {
	Name   string // the label its terms are printed with, e.g. "β"
	Levels int    // the number of levels, numbered from 0
}

// Observation is one experiment outcome: the factor levels of its
// configuration, the response value, and an optional WLS weight (0 means 1).
type Observation struct {
	Levels []int   // the level of each factor of the dataset, in its order
	Y      float64 // the response
	Weight float64 // the WLS weight; 0 means 1
}

// Dataset is a set of observations over common factors.
type Dataset struct {
	Factors []Factor      // the explanatory variables
	Obs     []Observation // the outcomes, in the order they were added
}

// Add appends an observation with weight 1.
func (d *Dataset) Add(levels []int, y float64) {
	d.Obs = append(d.Obs, Observation{Levels: append([]int(nil), levels...), Y: y})
}

// SetWeightsByFactor assigns each observation the weight 1/σ² of its level
// of the given factor, the thesis' WLS scheme (w_i = 1/σ_i², §5.2.5).
func (d *Dataset) SetWeightsByFactor(factor int) error {
	vars, err := d.VarianceByLevel(factor)
	if err != nil {
		return err
	}
	for i := range d.Obs {
		v := vars[d.Obs[i].Levels[factor]]
		if v <= 0 {
			return fmt.Errorf("anova: zero variance in level %d of %s; WLS weights undefined",
				d.Obs[i].Levels[factor], d.Factors[factor].Name)
		}
		d.Obs[i].Weight = 1 / v
	}
	return nil
}

// VarianceByLevel returns the sample variance of the response within each
// level of the factor (Figures 5.6/5.9 of the thesis).
func (d *Dataset) VarianceByLevel(factor int) ([]float64, error) {
	if factor < 0 || factor >= len(d.Factors) {
		return nil, fmt.Errorf("anova: factor index %d out of range", factor)
	}
	groups := make([][]float64, d.Factors[factor].Levels)
	for _, o := range d.Obs {
		l := o.Levels[factor]
		groups[l] = append(groups[l], o.Y)
	}
	vars := make([]float64, len(groups))
	for i, g := range groups {
		vars[i] = stats.Variance(g)
	}
	return vars, nil
}

// MeansBy returns the mean response for every combination of the given
// factors, as (combination levels, mean, count) tuples sorted by levels.
// This is the data behind Figures 5.8, 5.11 and 5.12.
type GroupMean struct {
	Levels []int   // the levels of the grouping factors, in MeansBy's order
	Mean   float64 // the mean response of the group
	N      int     // the number of observations in the group
}

// MeansBy groups observations by the levels of the given factors.
func (d *Dataset) MeansBy(factors ...int) []GroupMean {
	type agg struct {
		sum float64
		n   int
	}
	key := func(o Observation) string {
		var sb strings.Builder
		for _, f := range factors {
			fmt.Fprintf(&sb, "%d,", o.Levels[f])
		}
		return sb.String()
	}
	m := map[string]*agg{}
	lv := map[string][]int{}
	for _, o := range d.Obs {
		k := key(o)
		a, ok := m[k]
		if !ok {
			a = &agg{}
			m[k] = a
			levels := make([]int, len(factors))
			for i, f := range factors {
				levels[i] = o.Levels[f]
			}
			lv[k] = levels
		}
		a.sum += o.Y
		a.n++
	}
	out := make([]GroupMean, 0, len(m))
	for k, a := range m {
		out = append(out, GroupMean{Levels: lv[k], Mean: a.sum / float64(a.n), N: a.n})
	}
	sort.Slice(out, func(i, j int) bool {
		for x := range out[i].Levels {
			if out[i].Levels[x] != out[j].Levels[x] {
				return out[i].Levels[x] < out[j].Levels[x]
			}
		}
		return false
	})
	return out
}

// TermRow is one line of an ANOVA summary table.
type TermRow struct {
	// Name is the term label, e.g. "β" or "γδ".
	Name string
	// Factors are the indices of the factors in the term.
	Factors []int
	SS      float64 // the term's sum of squares
	DF      int     // its degrees of freedom
	MSS     float64 // its mean square, SS/DF
	F       float64 // the F statistic, MSS over the error mean square
	Sig     float64 // the p-value of F
	Power   float64 // the observed power at α = 0.05
}

// Fit is a fitted ANOVA model.
type Fit struct {
	Rows []TermRow // one per model term
	// Error line.
	SSE float64
	DFE int     // the error degrees of freedom
	MSE float64 // the error mean square, SSE/DFE
	// Model quality.
	SSTotal   float64
	R2        float64 // the coefficient of determination, 1 − SSE/SSTotal
	Sigma     float64 // the residual standard deviation, √MSE
	CVPercent float64 // the coefficient of variation, 100·Sigma/|GrandMean|
	GrandMean float64 // the (weighted) mean response
	// Per-observation diagnostics, in dataset order.
	Predicted    []float64
	StdResiduals []float64 // weighted standardized residuals, √w(y−ŷ)/Sigma
}

// columnsFor enumerates the effect-coded columns of a term: one column per
// combination of (level < last) across the term's factors. code returns the
// column value for an observation.
func columnsFor(factors []Factor, term []int) int {
	n := 1
	for _, f := range term {
		n *= factors[f].Levels - 1
	}
	return n
}

// colValue computes the effect coding of column combination combo (one
// sub-index per factor of the term) for observation levels.
func colValue(factors []Factor, term []int, combo []int, levels []int) float64 {
	v := 1.0
	for i, f := range term {
		l := levels[f]
		last := factors[f].Levels - 1
		switch {
		case l == combo[i]:
			// keep v
		case l == last:
			v = -v
		default:
			return 0
		}
	}
	return v
}

// Fit fits the model consisting of the given terms (each a set of factor
// indices; main effects are single-element terms) by weighted least squares
// with effect coding, and computes sequential (Type I) sums of squares. For
// the balanced full-factorial designs of the thesis these coincide with the
// classic ANOVA decomposition.
func FitModel(d *Dataset, terms [][]int) (*Fit, error) {
	if len(d.Obs) == 0 {
		return nil, fmt.Errorf("anova: no observations")
	}
	for _, t := range terms {
		if len(t) == 0 {
			return nil, fmt.Errorf("anova: empty term")
		}
		for _, f := range t {
			if f < 0 || f >= len(d.Factors) {
				return nil, fmt.Errorf("anova: factor index %d out of range", f)
			}
			if d.Factors[f].Levels < 2 {
				return nil, fmt.Errorf("anova: factor %s has fewer than 2 levels", d.Factors[f].Name)
			}
		}
	}

	// Build the full design: intercept column, then each term's block.
	type block struct {
		term   []int
		combos [][]int
		start  int // first column index
	}
	blocks := make([]block, len(terms))
	p := 1 // intercept
	for i, t := range terms {
		b := block{term: t, start: p}
		// Enumerate combinations of level indices < last per factor.
		combo := make([]int, len(t))
		for {
			b.combos = append(b.combos, append([]int(nil), combo...))
			j := len(t) - 1
			for ; j >= 0; j-- {
				combo[j]++
				if combo[j] < d.Factors[t[j]].Levels-1 {
					break
				}
				combo[j] = 0
			}
			if j < 0 {
				break
			}
		}
		if len(b.combos) != columnsFor(d.Factors, t) {
			return nil, fmt.Errorf("anova: internal combo enumeration error")
		}
		p += len(b.combos)
		blocks[i] = b
	}

	// Accumulate weighted normal equations XtWX and XtWy, plus ytWy.
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	var ytwy, sumW, sumWY float64
	row := make([]float64, p)
	for _, o := range d.Obs {
		w := o.Weight
		if w == 0 {
			w = 1
		}
		row[0] = 1
		for _, b := range blocks {
			for ci, combo := range b.combos {
				row[b.start+ci] = colValue(d.Factors, b.term, combo, o.Levels)
			}
		}
		for i := 0; i < p; i++ {
			if row[i] == 0 {
				continue
			}
			wi := w * row[i]
			for j := i; j < p; j++ {
				xtx[i][j] += wi * row[j]
			}
			xty[i] += wi * o.Y
		}
		ytwy += w * o.Y * o.Y
		sumW += w
		sumWY += w * o.Y
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}

	// Sequential RSS over nested prefixes: intercept only, then + each term.
	prefixRSS := make([]float64, len(terms)+1)
	sizes := make([]int, len(terms)+1)
	sizes[0] = 1
	for i, b := range blocks {
		sizes[i+1] = b.start + len(b.combos)
	}
	var beta []float64
	for k := 0; k <= len(terms); k++ {
		n := sizes[k]
		var err error
		beta, err = solve(xtx, xty, n)
		if err != nil {
			return nil, fmt.Errorf("anova: singular design at term %d: %w", k, err)
		}
		rss := ytwy
		for i := 0; i < n; i++ {
			rss -= beta[i] * xty[i]
		}
		if rss < 0 {
			rss = 0
		}
		prefixRSS[k] = rss
	}

	grandMean := sumWY / sumW
	sst := ytwy - sumW*grandMean*grandMean
	fit := &Fit{
		SSTotal:   sst,
		GrandMean: grandMean,
	}
	dfModel := 0
	for i, t := range terms {
		df := columnsFor(d.Factors, t)
		dfModel += df
		fit.Rows = append(fit.Rows, TermRow{
			Name:    termName(d.Factors, t),
			Factors: append([]int(nil), t...),
			SS:      prefixRSS[i] - prefixRSS[i+1],
			DF:      df,
		})
	}
	fit.SSE = prefixRSS[len(terms)]
	fit.DFE = len(d.Obs) - 1 - dfModel
	if fit.DFE <= 0 {
		return nil, fmt.Errorf("anova: no error degrees of freedom (n=%d, model df=%d)", len(d.Obs), dfModel)
	}
	fit.MSE = fit.SSE / float64(fit.DFE)
	for i := range fit.Rows {
		r := &fit.Rows[i]
		r.MSS = r.SS / float64(r.DF)
		if fit.MSE > 0 {
			r.F = r.MSS / fit.MSE
			r.Sig = stats.FSig(r.F, float64(r.DF), float64(fit.DFE))
			r.Power = stats.FTestPower(0.05, float64(r.DF), float64(fit.DFE), r.SS/fit.MSE)
		} else {
			// A saturated/perfect model: infinitely significant.
			r.F = math.Inf(1)
			r.Sig = 0
			r.Power = 1
		}
	}
	if sst > 0 {
		fit.R2 = 1 - fit.SSE/sst
	} else {
		fit.R2 = 1
	}
	fit.Sigma = math.Sqrt(fit.MSE)
	if grandMean != 0 {
		fit.CVPercent = 100 * fit.Sigma / math.Abs(grandMean)
	}

	// Diagnostics with the full model's coefficients (beta holds the full
	// fit after the last solve).
	fit.Predicted = make([]float64, len(d.Obs))
	fit.StdResiduals = make([]float64, len(d.Obs))
	for oi, o := range d.Obs {
		pred := beta[0]
		for _, b := range blocks {
			for ci, combo := range b.combos {
				if v := colValue(d.Factors, b.term, combo, o.Levels); v != 0 {
					pred += beta[b.start+ci] * v
				}
			}
		}
		fit.Predicted[oi] = pred
		if fit.Sigma > 0 {
			w := o.Weight
			if w == 0 {
				w = 1
			}
			// Weighted standardized residual: √w(y−ŷ)/σ̂.
			fit.StdResiduals[oi] = math.Sqrt(w) * (o.Y - pred) / fit.Sigma
		}
	}
	return fit, nil
}

// termName renders a term like "β" for main effects or "(γδ)" for
// interactions, using the factor names.
func termName(factors []Factor, term []int) string {
	if len(term) == 1 {
		return factors[term[0]].Name
	}
	var sb strings.Builder
	sb.WriteByte('(')
	for _, f := range term {
		sb.WriteString(factors[f].Name)
	}
	sb.WriteByte(')')
	return sb.String()
}

// solve solves the leading n×n block of the symmetric system a·x = b by
// Gaussian elimination with partial pivoting.
func solve(a [][]float64, b []float64, n int) ([]float64, error) {
	// Copy the leading block.
	m := make([][]float64, n)
	for i := 0; i < n; i++ {
		m[i] = make([]float64, n+1)
		copy(m[i], a[i][:n])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-10 {
			return nil, fmt.Errorf("pivot %d is numerically zero", col)
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			if f == 0 {
				continue
			}
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}
