// Package experiments regenerates every table and figure of the paper's
// evaluation, plus this reproduction's own validation experiments. Each
// experiment returns structured results and renders the same rows the
// paper reports; cmd/ftmmbench prints them, the root-level benchmarks
// time them, and EXPERIMENTS.md holds each one's output under
// DefaultOptions as a block TestExperimentsDoc checks.
//
// Index (see DESIGN.md for the full mapping):
//
//	EXP-T2   Table2()       — Table 2, C = 5
//	EXP-T3   Table3()       — Table 3, C = 7
//	EXP-F9A  Fig9a()        — Figure 9(a), total cost vs parity group size
//	EXP-F9B  Fig9b()        — Figure 9(b), streams vs parity group size
//	EXP-K    KSweep()       — §2 inline N/D' sweep over k
//	EXP-MTTF MTTFExamples() — §2-§4 inline MTTF figures
//	EXP-F4   Fig4()         — Figure 4, staggered-group buffer sawtooth
//	EXP-F5-7 NCFailure()    — Figures 5-7, non-clustered failure losses
//	EXP-F8   IBShift()      — Figure 8, improved-bandwidth shift
//	EXP-MC   MonteCarlo()   — Monte-Carlo vs equations (4)-(6)
//	EXP-COST Sizing()       — §5 worked sizing example
package experiments

import (
	"fmt"

	"ftmm/internal/analytic"
	"ftmm/internal/report"
)

// TableResult is a reproduced metrics table (Tables 2 and 3).
type TableResult struct {
	C       int
	K       int
	Metrics []analytic.Metrics
	Text    string
}

// reproduceTable evaluates all four schemes at one design point.
func reproduceTable(c, k int) (*TableResult, error) {
	cfg := analytic.Table1Config(c, k)
	ms, err := cfg.AllMetrics()
	if err != nil {
		return nil, err
	}
	tbl := report.NewTable(
		fmt.Sprintf("Results with C = %d (Table 1 parameters, K = %d)", c, k),
		"Metrics", "RAID", "Staggered", "Non-clustered", "Improved BW")
	row := func(name string, f func(analytic.Metrics) string) {
		cells := []string{name}
		for _, m := range ms {
			cells = append(cells, f(m))
		}
		tbl.AddRow(cells...)
	}
	row("Disk storage overhead", func(m analytic.Metrics) string { return report.Pct(m.StorageOverheadFrac) })
	row("Disk bandwidth overhead", func(m analytic.Metrics) string { return report.Pct(m.BandwidthOverheadFrac) })
	row("MTTF (in years)", func(m analytic.Metrics) string { return report.Years(float64(m.MTTF)) })
	row("MTTDS (in years)", func(m analytic.Metrics) string { return report.Years(float64(m.MTTDS)) })
	row("Streams", func(m analytic.Metrics) string { return report.Int(m.Streams) })
	row("Buffers (in tracks)", func(m analytic.Metrics) string { return report.Int(m.BufferTracks) })
	return &TableResult{C: c, K: k, Metrics: ms, Text: tbl.String()}, nil
}

// Table2 reproduces the paper's Table 2 (C = 5, K = 3).
func Table2() (*TableResult, error) { return reproduceTable(5, 3) }

// Table3 reproduces the paper's Table 3 (C = 7, K = 3).
func Table3() (*TableResult, error) { return reproduceTable(7, 3) }

// Render returns the table text.
func (r *TableResult) Render() string { return r.Text }
