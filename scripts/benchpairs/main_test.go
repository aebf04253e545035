package main

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestStats(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		median, iqr float64
	}{
		{[]float64{7}, 7, 0},
		{[]float64{3, 1}, 2, 1},
		{[]float64{4, 1, 3, 2}, 2.5, 1.5},
		{[]float64{5, 1, 4, 2, 3}, 3, 2},
		{[]float64{10, 10, 10, 10, 90}, 10, 0},
	} {
		if got := median(tc.xs); got != tc.median {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.median)
		}
		if got := iqr(tc.xs); got != tc.iqr {
			t.Errorf("iqr(%v) = %v, want %v", tc.xs, got, tc.iqr)
		}
	}
	if xs := []float64{3, 1, 2}; median(xs) != 2 || !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Error("median sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "tracks_per_s", Better: "higher", Bound: 0.25}
	lower := metricDef{Name: "cycle_ms", Better: "lower", Bound: 0.25}
	exact := metricDef{Name: "delivered_pct", Better: "higher", Bound: 0.00005}
	ten := func(v ...float64) []float64 { return v }
	base := ten(100, 102, 98, 101, 99, 100, 103, 97, 100, 100)
	for _, tc := range []struct {
		name      string
		d         metricDef
		base      []float64
		cand      []float64
		wins      int
		changePct float64
		want      string
	}{
		{"10/10 wins, gap past the IQR", higher, base,
			ten(110, 112, 108, 111, 109, 110, 113, 107, 110, 110), 10, 10, "better"},
		{"9/10 wins is enough", higher, base,
			ten(110, 112, 108, 111, 109, 110, 113, 107, 110, 90), 9, 10, "better"},
		{"8/10 wins is not", higher, base,
			ten(110, 112, 108, 111, 109, 110, 113, 107, 90, 90), 8, 9.5, "flat"},
		{"every pair won by less than the IQR", higher, base,
			ten(100.5, 102.5, 98.5, 101.5, 99.5, 100.5, 103.5, 97.5, 100.5, 100.5), 10, 0.5, "flat"},
		{"lower is better: a fall wins", lower, base,
			ten(90, 92, 88, 91, 89, 90, 93, 87, 90, 90), 10, 10, "better"},
		{"worse by more than the bound", higher, base,
			ten(70, 72, 68, 71, 69, 70, 73, 67, 70, 70), 0, -30, "worse"},
		{"worse by less than the bound", lower, base,
			ten(110, 112, 108, 111, 109, 110, 113, 107, 110, 110), 0, -10, "flat"},
		{"spread wider than the bound", higher, ten(50, 150, 60, 140, 100),
			ten(55, 140, 65, 150, 100), 3, 0, "unresolved"},
		{"equal counts", exact, ten(100, 100, 100), ten(100, 100, 100), 0, 0, "flat"},
		{"a zero base", higher, ten(0, 0, 0), ten(1, 1, 1), 3, 0, "unresolved"},
	} {
		if got := wins(tc.d.Better, tc.base, tc.cand); got != tc.wins {
			t.Errorf("%s: wins = %d, want %d", tc.name, got, tc.wins)
		}
		if got := 100 * change(tc.d.Better, median(tc.base), median(tc.cand)); math.Abs(got-tc.changePct) > 1e-9 {
			t.Errorf("%s: change = %v%%, want %v%%", tc.name, got, tc.changePct)
		}
		if got := verdict(tc.d, tc.base, tc.cand); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestFailures(t *testing.T) {
	metrics := func(verdicts ...string) []metricOut {
		var out []metricOut
		for i, v := range verdicts {
			out = append(out, metricOut{Name: fmt.Sprintf("m%d", i), Verdict: v})
		}
		return out
	}
	for _, tc := range []struct {
		name string
		bf   benchFile
		want int
	}{
		{"flat, better and unresolved pass", benchFile{Workloads: []workloadOut{
			{Name: "wire-fanout", Metrics: metrics("flat", "better", "unresolved")},
			{Name: "engine-normal", Metrics: metrics("flat"), ExactCounts: &exactOut{Differ: []string{}}},
		}}, 0},
		{"one worse verdict fails", benchFile{Workloads: []workloadOut{
			{Name: "cluster-paced", Metrics: metrics("flat", "worse")},
		}}, 1},
		{"a differing exact count fails", benchFile{Workloads: []workloadOut{
			{Name: "engine-degraded", Metrics: metrics("flat"), ExactCounts: &exactOut{Differ: []string{"tracks.lost: base 1, candidate 2"}}},
		}}, 1},
		{"each failure is listed", benchFile{Workloads: []workloadOut{
			{Name: "engine-normal", Metrics: metrics("worse", "worse"), ExactCounts: &exactOut{Differ: []string{"a", "b"}}},
			{Name: "wire-fanout", Metrics: metrics("worse")},
		}}, 5},
	} {
		if got := failures(tc.bf); len(got) != tc.want {
			t.Errorf("%s: failures = %q, want %d", tc.name, got, tc.want)
		}
	}
}

func TestParsePlan(t *testing.T) {
	plan, err := parsePlan("engine-normal:10, wire-fanout", 3)
	if err != nil || !slices.Equal(plan, []planned{{"engine-normal", 10}, {"wire-fanout", 3}}) {
		t.Errorf("plan = %v, %v", plan, err)
	}
	for _, bad := range []string{"engine-normal:0", "engine-normal:x", ":4", ""} {
		if _, err := parsePlan(bad, 3); err == nil {
			t.Errorf("parsePlan(%q) accepted", bad)
		}
	}
}

func TestExactSuffixesFromCompare(t *testing.T) {
	got, err := exactSuffixes("../../benchmark/compare.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{".streams_admitted", "tracks.lost", "buffer.outstanding_end"} {
		if !slices.Contains(got, want) {
			t.Errorf("exact counts %v lack %s", got, want)
		}
	}
}
