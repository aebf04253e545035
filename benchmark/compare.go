package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// exactSuffixes mark the per-layer metrics of the engine workloads that
// are exact counts for a seed and a window length: two runs of one
// commit must agree on them to the last digit, so any difference is a
// change of behaviour, not noise.
var exactSuffixes = []string{
	".streams_admitted", ".streams_analytic", ".peak_tracks", ".bf_analytic_tracks",
	"disk.data_reads_per_cycle", "disk.parity_reads_per_cycle", "parity.reconstructions_per_cycle",
	"buffer.outstanding_end", "rebuild.window_cycles", "rebuild.tracks_restored",
	"schemes.readmit_rejects", "schemes.lockstep_pairs",
	"tracks.expected", "tracks.verified", "tracks.lost",
}

func isExact(workload, metric string) bool {
	if !strings.HasPrefix(workload, "engine-") {
		return false
	}
	for _, s := range exactSuffixes {
		if strings.HasSuffix(metric, s) {
			return true
		}
	}
	return false
}

// loadRuns reads a `-workload all -json` output: the last line of the
// file, an object keyed by workload ("name" untraced, "name/traced").
func loadRuns(path string) (map[string]resultOut, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var runs map[string]resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &runs); err != nil {
		return nil, fmt.Errorf("%s: last line is not a -workload all -json result: %w", path, err)
	}
	return runs, nil
}

// verdict classifies one end-to-end metric of one workload: how much
// worse b is than a as a share of a, against the metric's bound.
// Unresolved means the run-internal spread (IQR over slices) of either
// side is wider than the bound, so the pair cannot tell a regression
// from noise.
func verdict(d metricDef, a, b, spreadA, spreadB float64) (string, float64) {
	if a == 0 {
		return "unresolved", 0
	}
	worse := (b - a) / a
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case spreadA > d.Bound || spreadB > d.Bound:
		return "unresolved", worse
	case worse > d.Bound:
		return "regressed", worse
	default:
		return "ok", worse
	}
}

// runCompare diffs two outputs of `-workload all -json` (base, then
// candidate) and prints one row per workload and end-to-end metric, plus
// one row for every exact count that differs. It returns the exit code:
// 1 if anything regressed or an exact count moved, 0 otherwise.
func runCompare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: benchmark -compare base.json candidate.json")
		return 2
	}
	base, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 2
	}
	cand, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintln(w, "benchmark:", err)
		return 2
	}
	return compareRuns(base, cand, w)
}

func compareRuns(base, cand map[string]resultOut, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %8s %7s  %s\n", "workload", "metric", "base", "candidate", "worse", "bound", "verdict")
	for _, wl := range allWorkloads() {
		a, okA := base[wl.Name]
		b, okB := cand[wl.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-16s missing from one side\n", wl.Name)
			code = 1
			continue
		}
		if !a.Correct || !b.Correct {
			fmt.Fprintf(w, "%-16s a run reported a correctness violation\n", wl.Name)
			code = 1
		}
		for _, d := range endToEnd {
			v, worse := verdict(d, a.Metrics[d.Name].Value, b.Metrics[d.Name].Value, a.Spread[d.Name], b.Spread[d.Name])
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %+7.1f%% %6.1f%%  %s\n",
				wl.Name, d.Name, a.Metrics[d.Name].Value, b.Metrics[d.Name].Value, 100*worse, 100*d.Bound, v)
		}
		ta, tb := base[wl.Name+"/traced"], cand[wl.Name+"/traced"]
		for _, d := range perLayer {
			if !isExact(wl.Name, d.Name) {
				continue
			}
			if x, y := ta.Metrics[d.Name].Value, tb.Metrics[d.Name].Value; x != y {
				fmt.Fprintf(w, "%-16s %-40s %14.4f %14.4f  count differs\n", wl.Name, d.Name, x, y)
				code = 1
			}
		}
	}
	return code
}
