package exp

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/anova"
)

// RenderTable lays out rows under headers with aligned columns, the plain
// text form cmd/paper prints and EXPERIMENTS.md records.
func RenderTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len([]rune(h))
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
		}
		sb.WriteByte('\n')
	}
	writeRow(headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total-2))
	sb.WriteByte('\n')
	for _, r := range rows {
		writeRow(r)
	}
	return sb.String()
}

// RenderFit formats an ANOVA fit in the layout of the thesis tables
// (factor, SS, DF, MSS, F, Sig, Power, then the quality line).
func RenderFit(fit *anova.Fit) string {
	var rows [][]string
	for _, r := range fit.Rows {
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%.3f", r.SS),
			fmt.Sprintf("%d", r.DF),
			fmt.Sprintf("%.3f", r.MSS),
			fmt.Sprintf("%.3f", r.F),
			fmt.Sprintf("%.3f", r.Sig),
			fmt.Sprintf("%.3f", r.Power),
		})
	}
	rows = append(rows, []string{
		"Error",
		fmt.Sprintf("%.3f", fit.SSE),
		fmt.Sprintf("%d", fit.DFE),
		fmt.Sprintf("%.3f", fit.MSE),
		"", "", "",
	})
	table := RenderTable([]string{"Factor", "SS", "D.F.", "MSS", "F", "Sig.", "Power"}, rows)
	return table + fmt.Sprintf("R2 = %.3f   sigma = %.3f   CV = %.2f%%\n",
		fit.R2, fit.Sigma, fit.CVPercent)
}

// RenderTukey formats a pairwise significance matrix like Tables 5.7-5.9.
func RenderTukey(tk *anova.TukeyResult, labels []string) string {
	headers := append([]string{""}, labels...)
	var rows [][]string
	for i := range tk.Groups {
		row := []string{labels[i]}
		for j := range tk.Groups {
			if i == j {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.3f", tk.Sig[i][j]))
			}
		}
		rows = append(rows, row)
	}
	return RenderTable(headers, rows)
}

// FormatRatio renders a run-length ratio the way Table 5.13 does: "inf"
// when the whole input fits in one run.
func FormatRatio(ratio float64, singleRun bool) string {
	if singleRun || math.IsInf(ratio, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", ratio)
}
