package exp

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/anova"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stats"
)

// Artefact is one table or figure of the paper's evaluation. Artefacts is
// the one list of them; cmd/paper, the package's render test and
// EXPERIMENTS.md are its only consumers.
type Artefact struct {
	// ID names the artefact on the command line. Thesis numbers alone
	// collide (there is a Fig 5.2 and a Table 5.2), so ids carry the kind:
	// "tab5.13", "fig6.4".
	ID string
	// Group is one of Groups.
	Group string
	// Title is the heading printed above the body.
	Title string
	run   func(*Session) (string, error)
}

// Groups lists the artefact groups in presentation order.
var Groups = []string{"model", "runlen", "anova", "time"}

// Artefacts lists every reproduced table and figure in presentation order.
// The §3.6 model sits directly above Table 5.13 so the headline ratio — RS
// at 2.0x memory on random input — can be read against it.
var Artefacts = []Artefact{
	{"tab2.1", "model", "Table 2.1 — polyphase merge of tapes {8, 10, 3, 0, 8, 11}", tab21},
	{"fig3.8", "model", "Fig 3.8 — §3.6 model of replacement selection (uniform input)", fig38},

	{"tab5.13", "runlen", "Table 5.13 — average run length relative to memory", tab513},
	{"fig5.4", "runlen", "Fig 5.4 — run length vs buffer size (random input, both buffers)", fig54},

	{"fig5.2", "anova", "Fig 5.2 — number of runs by input dataset (min / mean / max over all configs)", fig52},
	{"tab5.2", "anova", "Table 5.2 — random input, model µ+α+β+γ+δ", fitTable(gen.Random, MainEffects, nil, -1)},
	{"tab5.3", "anova", "Table 5.3 — random input, model µ+β", fitTable(gen.Random, SizeOnly, nil, -1)},
	{"fig5.5", "anova", "Fig 5.5 — mixed balanced: mean number of runs by buffer setup (α)", setupMeans(gen.MixedBalanced)},
	{"tab5.4", "anova", "Table 5.4 — mixed balanced, all factors and first-order interactions", fitTable(gen.MixedBalanced, AllFirstOrder, nil, -1)},
	{"tab5.5", "anova", "Table 5.5 — mixed balanced, victim configs only, model β,γ,δ + interactions (MLS)", fitTable(gen.MixedBalanced, FirstOrderNoAlpha, DropVictimless, -1)},
	{"fig5.6", "anova", "Fig 5.6 — mixed balanced: variance of runs by buffer size (β)", fig56},
	{"tab5.6", "anova", "Table 5.6 — mixed balanced, same model with WLS weighting (w = 1/σ²_β)", fitTable(gen.MixedBalanced, FirstOrderNoAlpha, DropVictimless, 1)},
	{"fig5.7", "anova", "Fig 5.7 — standardized residual histogram (WLS model)", fig57},
	{"tab5.7", "anova", "Table 5.7 — Tukey pairwise significance of input heuristics (mixed balanced)", tukeyTable(2, "input", labels(core.InputHeuristics))},
	{"tab5.8", "anova", "Table 5.8 — Tukey pairwise significance of output heuristics (mixed balanced)", tukeyTable(3, "output", labels(core.OutputHeuristics))},
	{"fig5.8", "anova", "Fig 5.8 — mixed balanced: mean runs per (input, output) heuristic", fig58},
	{"tab5.10", "anova", "Table 5.10 — mixed imbalanced, α,β,γ,δ + α×γ, α×δ, γ×δ, α×γ×δ (MLS)", fitTable(gen.MixedImbalanced, ImbalancedModel, nil, -1)},
	{"tab5.11", "anova", "Table 5.11 — mixed imbalanced, same model with WLS weighting", fitTable(gen.MixedImbalanced, ImbalancedModel, nil, 1)},
	{"fig5.11", "anova", "Fig 5.11 — mixed imbalanced: mean runs by buffer setup (α)", setupMeans(gen.MixedImbalanced)},
	{"fig5.12", "anova", "Fig 5.12 — mixed imbalanced: mean runs by input heuristic for each buffer setup", fig512},
	{"tab5.12", "anova", "Table 5.12 — Tukey over (setup, input, output) best combinations (mixed imbalanced)", tab512},

	{"fig6.1", "time", "Fig 6.1 — merge time vs fan-in (simulated disk)", fig61},
	{"fig6.2", "time", "Fig 6.2 — random input, time vs memory", sweep("fig6.2", "memory (records)", Fig62)},
	{"fig6.3", "time", "Fig 6.3 — random input, time vs input size", sweep("fig6.3", "input (records)", Fig63)},
	{"fig6.4", "time", "Fig 6.4 — mixed input, time vs memory", sweep("fig6.4", "memory (records)", Fig64)},
	{"fig6.5", "time", "Fig 6.5 — mixed input, time vs input size", sweep("fig6.5", "input (records)", Fig65)},
	{"fig6.6", "time", "Fig 6.6 — alternating input, time vs sorted sections", sweep("fig6.6", "sections", Fig66)},
	{"fig6.7", "time", "Fig 6.7 — reverse sorted input, time vs input size", sweep("fig6.7", "input (records)", Fig67)},
}

// Select returns the artefacts of one group ("all" for every group) in list
// order, narrowed to the given ids when only is non-empty. An unknown group
// or id is an error naming the valid ones.
func Select(group string, only []string) ([]Artefact, error) {
	if group != "all" && !slices.Contains(Groups, group) {
		return nil, fmt.Errorf("exp: unknown group %q (want all, %s)", group, strings.Join(Groups, ", "))
	}
	var ids []string
	var sel []Artefact
	for _, a := range Artefacts {
		if group != "all" && a.Group != group {
			continue
		}
		ids = append(ids, a.ID)
		if len(only) == 0 || slices.Contains(only, a.ID) {
			sel = append(sel, a)
		}
	}
	for _, id := range only {
		if !slices.Contains(ids, id) {
			return nil, fmt.Errorf("exp: no artefact %q in group %s (valid ids: %s)", id, group, strings.Join(ids, ", "))
		}
	}
	return sel, nil
}

// List renders the artefact list as the markdown table README carries.
func List() string {
	var sb strings.Builder
	sb.WriteString("| id | group | artefact |\n|---|---|---|\n")
	for _, a := range Artefacts {
		fmt.Fprintf(&sb, "| `%s` | %s | %s |\n", a.ID, a.Group, a.Title)
	}
	return sb.String()
}

// Session is one evaluation pass at one scale. It holds what artefacts
// share: the anova group reads one factorial run, dataset by dataset, and
// the package's shape tests read the rows and series the render loop
// computes.
type Session struct {
	Params Params
	// Progress, when non-nil, receives a line per finished factorial
	// dataset.
	Progress func(string)

	datasets map[gen.Kind]*anova.Dataset
	shared   map[string]any
}

// Section runs the artefact and returns its markdown section: the title as
// a heading, the body in a code fence. Under fixed seeds and the simulated
// clock the text is a pure function of the scale.
func (a Artefact) Section(s *Session) (string, error) {
	body, err := a.run(s)
	if err != nil {
		return "", fmt.Errorf("%s: %w", a.ID, err)
	}
	return fmt.Sprintf("## %s\n\n```\n%s```\n\n", a.Title, body), nil
}

// shared computes a keyed result once per session.
func shared[T any](s *Session, key string, compute func(Params) (T, error)) (T, error) {
	if v, ok := s.shared[key]; ok {
		return v.(T), nil
	}
	v, err := compute(s.Params)
	if err != nil {
		return v, err
	}
	if s.shared == nil {
		s.shared = map[string]any{}
	}
	s.shared[key] = v
	return v, nil
}

// parallel calls fn(0) … fn(n-1), at most GOMAXPROCS at a time, and returns
// the error of the lowest failing index. The experiments it spreads out are
// independent and deterministic, so their results do not depend on it.
func parallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		slots <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
			<-slots
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// factorial returns the factorial experiment (§5.2) as one ANOVA dataset,
// with factors (α, β, γ, δ), per input distribution, for at least the given
// ones. A dataset is generated the first time an artefact of the session
// asks for it; the ones a call is first to ask for are independent and run
// side by side.
func (s *Session) factorial(kinds ...gen.Kind) (map[gen.Kind]*anova.Dataset, error) {
	if s.datasets == nil {
		s.datasets = map[gen.Kind]*anova.Dataset{}
	}
	fresh := make([]*anova.Dataset, len(kinds))
	err := parallel(len(kinds), func(i int) (err error) {
		if s.datasets[kinds[i]] == nil {
			fresh[i], err = factorialDataset(kinds[i], s.Params)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, kind := range kinds {
		if fresh[i] == nil {
			continue
		}
		s.datasets[kind] = fresh[i]
		if s.Progress != nil {
			s.Progress(fmt.Sprintf("factorial: %v done (%d observations)", kind, len(fresh[i].Obs)))
		}
	}
	return s.datasets, nil
}

// subset copies the observations of one factorial dataset that satisfy keep
// (all of them when keep is nil): §5.2.5 drops the victim-less
// configurations before modelling.
func (s *Session) subset(kind gen.Kind, keep func(levels []int) bool) (*anova.Dataset, error) {
	f, err := s.factorial(kind)
	if err != nil {
		return nil, err
	}
	out := &anova.Dataset{Factors: f[kind].Factors}
	for _, o := range f[kind].Obs {
		if keep == nil || keep(o.Levels) {
			out.Obs = append(out.Obs, o)
		}
	}
	return out, nil
}

// fit fits an ANOVA model over subset(kind, keep); wlsFactor ≥ 0 applies the
// thesis' 1/σ² weighting by that factor's levels.
func (s *Session) fit(kind gen.Kind, terms [][]int, keep func([]int) bool, wlsFactor int) (*anova.Fit, *anova.Dataset, error) {
	ds, err := s.subset(kind, keep)
	if err != nil {
		return nil, nil, err
	}
	if wlsFactor >= 0 {
		if err := ds.SetWeightsByFactor(wlsFactor); err != nil {
			return nil, nil, err
		}
	}
	fit, err := anova.FitModel(ds, terms)
	return fit, ds, err
}

// --- model group ---

func tab21(*Session) (string, error) {
	steps, err := Table21Polyphase()
	if err != nil {
		return "", err
	}
	return RenderPolyphase(steps), nil
}

func fig38(*Session) (string, error) {
	res, err := Fig38Model(4, 10)
	if err != nil {
		return "", err
	}
	return RenderModel(res), nil
}

// --- runlen group ---

func tab513(s *Session) (string, error) {
	rows, err := shared(s, "tab5.13", Table513)
	if err != nil {
		return "", err
	}
	return "cfg1: input buffer 0.02% | cfg2: both buffers 20% | cfg3: both buffers 2% (recommended)\n" +
		"('inf' = the whole input fit in one run; the thesis prints the run COUNT 50 in its\n" +
		" alternating row — §5.2.3 gives the equivalent 5x-memory average length shown here;\n" +
		" RS on random input is the ratio the §3.6 model of fig3.8 puts at 2.0)\n\n" +
		RenderTable513(rows), nil
}

func fig54(s *Session) (string, error) {
	pts, err := shared(s, "fig5.4", Fig54BufferSweep)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for _, pt := range pts {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f%%", pt.FracPercent),
			fmt.Sprintf("%.2f", pt.Ratio),
		})
	}
	return RenderTable([]string{"buffer size", "run length / memory"}, rows), nil
}

// --- anova group (Tables 5.2-5.12, Figs 5.2 and 5.5-5.12) ---

var setupLabels = []string{"input-only", "both", "victim-only"}

func labels[T fmt.Stringer](xs []T) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.String()
	}
	return out
}

// fig52 is the distribution of the number of runs per dataset, plus the
// §5.2.1/§5.2.2 observation that sorted and reverse sorted input are the
// constant y = µ = 1.
func fig52(s *Session) (string, error) {
	f, err := s.factorial(gen.Kinds...)
	if err != nil {
		return "", err
	}
	var rows [][]string
	var constant string
	for _, kind := range gen.Kinds {
		ys := runCounts(f[kind])
		sort.Float64s(ys)
		lo, hi := ys[0], ys[len(ys)-1]
		rows = append(rows, []string{
			kind.String(),
			fmt.Sprintf("%.0f", lo),
			fmt.Sprintf("%.1f", stats.Mean(ys)),
			fmt.Sprintf("%.0f", hi),
		})
		if kind == gen.Sorted || kind == gen.ReverseSorted {
			constant += fmt.Sprintf("%v: y = µ = 1 for all configurations: %v\n", kind, lo == 1 && hi == 1)
		}
	}
	return RenderTable([]string{"dataset", "min", "mean", "max"}, rows) + "\n" + constant, nil
}

// runCounts returns a dataset's response vector: the number of runs of each
// observation, in the order the cross generated them.
func runCounts(ds *anova.Dataset) []float64 {
	ys := make([]float64, len(ds.Obs))
	for i, o := range ds.Obs {
		ys[i] = o.Y
	}
	return ys
}

// fitTable renders one ANOVA model fit.
func fitTable(kind gen.Kind, terms [][]int, keep func([]int) bool, wlsFactor int) func(*Session) (string, error) {
	return func(s *Session) (string, error) {
		fit, _, err := s.fit(kind, terms, keep, wlsFactor)
		if err != nil {
			return "", err
		}
		return RenderFit(fit), nil
	}
}

// wlsMixed is the Table 5.6 fit, which Figs 5.7-5.8 and Tables 5.7-5.8
// analyse further.
func wlsMixed(s *Session) (*anova.Fit, *anova.Dataset, error) {
	return s.fit(gen.MixedBalanced, FirstOrderNoAlpha, DropVictimless, 1)
}

// wlsImbalanced is the Table 5.11 fit behind Fig 5.12 and Table 5.12.
func wlsImbalanced(s *Session) (*anova.Fit, *anova.Dataset, error) {
	return s.fit(gen.MixedImbalanced, ImbalancedModel, nil, 1)
}

// setupMeans renders mean runs per buffer setup (α) over one dataset.
func setupMeans(kind gen.Kind) func(*Session) (string, error) {
	return func(s *Session) (string, error) {
		f, err := s.factorial(kind)
		if err != nil {
			return "", err
		}
		var rows [][]string
		for _, m := range f[kind].MeansBy(0) {
			rows = append(rows, []string{setupLabels[m.Levels[0]], fmt.Sprintf("%.1f", m.Mean)})
		}
		return RenderTable([]string{"level", "mean runs"}, rows), nil
	}
}

// fig56 is the per-β variance that supplies the WLS weights.
func fig56(s *Session) (string, error) {
	sub, err := s.subset(gen.MixedBalanced, DropVictimless)
	if err != nil {
		return "", err
	}
	vars, err := sub.VarianceByLevel(1)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for i, v := range vars {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f%%", 100*BufferFracLevels[i]),
			fmt.Sprintf("%.2f", v),
		})
	}
	return RenderTable([]string{"buffer size", "variance"}, rows), nil
}

func fig57(s *Session) (string, error) {
	fit, _, err := wlsMixed(s)
	if err != nil {
		return "", err
	}
	counts, centers, err := stats.Histogram(fit.StdResiduals, -5, 5, 10)
	if err != nil {
		return "", err
	}
	var rows [][]string
	for i := range counts {
		rows = append(rows, []string{fmt.Sprintf("%+.1f", centers[i]), fmt.Sprintf("%d", counts[i])})
	}
	return RenderTable([]string{"residual", "count"}, rows), nil
}

// tukeyTable renders the pairwise comparison of one heuristic factor under
// the Table 5.6 model, and the levels no other beats at the 5% level.
func tukeyTable(factor int, what string, lbls []string) func(*Session) (string, error) {
	return func(s *Session) (string, error) {
		fit, ds, err := wlsMixed(s)
		if err != nil {
			return "", err
		}
		tk, err := anova.Tukey(ds, fit, factor)
		if err != nil {
			return "", err
		}
		best := tk.Best(0.05)
		names := make([]string, len(best))
		for i, j := range best {
			names[i] = lbls[j]
		}
		return RenderTukey(tk, lbls) + fmt.Sprintf("\nbest %s heuristics: %v\n", what, names), nil
	}
}

// crossMeans tabulates mean runs over two factors: rowFactor down,
// colFactor across.
func crossMeans(ds *anova.Dataset, corner string, rowFactor int, rowLabels []string, colFactor int, colLabels []string) string {
	means := map[[2]int]float64{}
	for _, m := range ds.MeansBy(rowFactor, colFactor) {
		means[[2]int{m.Levels[0], m.Levels[1]}] = m.Mean
	}
	headers := append([]string{corner}, colLabels...)
	var rows [][]string
	for i, rl := range rowLabels {
		row := []string{rl}
		for j := range colLabels {
			row = append(row, fmt.Sprintf("%.1f", means[[2]int{i, j}]))
		}
		rows = append(rows, row)
	}
	return RenderTable(headers, rows)
}

func fig58(s *Session) (string, error) {
	_, ds, err := wlsMixed(s)
	if err != nil {
		return "", err
	}
	return crossMeans(ds, "input \\ output", 2, labels(core.InputHeuristics), 3, labels(core.OutputHeuristics)), nil
}

func fig512(s *Session) (string, error) {
	_, ds, err := wlsImbalanced(s)
	if err != nil {
		return "", err
	}
	return crossMeans(ds, "input \\ setup", 2, labels(core.InputHeuristics), 0, setupLabels), nil
}

func tab512(s *Session) (string, error) {
	fit, ds, err := wlsImbalanced(s)
	if err != nil {
		return "", err
	}
	tk, err := anova.Tukey(ds, fit, 0, 2, 3)
	if err != nil {
		return "", err
	}
	best := tk.Best(0.05)
	if len(best) > 12 {
		best = best[:12]
	}
	inputLabels, outputLabels := labels(core.InputHeuristics), labels(core.OutputHeuristics)
	var rows [][]string
	for _, i := range best {
		g := tk.Groups[i]
		rows = append(rows, []string{
			setupLabels[g.Levels[0]],
			inputLabels[g.Levels[1]],
			outputLabels[g.Levels[2]],
			fmt.Sprintf("%.1f", g.Mean),
		})
	}
	return RenderTable([]string{"setup", "input", "output", "mean runs"}, rows), nil
}

// --- time group (Chapter 6, simulated disk) ---

func fig61(s *Session) (string, error) {
	pts, err := shared(s, "fig6.1", Fig61FanIn)
	if err != nil {
		return "", err
	}
	return RenderFanIn(pts) + fmt.Sprintf("\nbest fan-in: %d (thesis: 10)\n", BestFanIn(pts)), nil
}

// sweep renders one RS-vs-2WRS series.
func sweep(id, xLabel string, fig func(Params) ([]TimePoint, error)) func(*Session) (string, error) {
	return func(s *Session) (string, error) {
		pts, err := shared(s, id, fig)
		if err != nil {
			return "", err
		}
		return RenderTimePoints(xLabel, pts), nil
	}
}
