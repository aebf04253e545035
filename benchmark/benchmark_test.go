package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestMedianIQR(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	// Quartiles of 1..5 by linear interpolation are 2 and 4.
	if got := iqr([]float64{1, 2, 3, 4, 5}); got != 2 {
		t.Errorf("iqr = %v, want 2", got)
	}
	// One disturbed slice moves neither the reported value nor the IQR,
	// whichever side is the bad one.
	if v, spread := overSlices([]float64{10, 10, 10, 10, 20}, "lower"); v != 10 || spread != 0 {
		t.Errorf("overSlices lower = %v, %v, want 10, 0", v, spread)
	}
	if v, spread := overSlices([]float64{10, 10, 10, 10, 5}, "higher"); v != 10 || spread != 0 {
		t.Errorf("overSlices higher = %v, %v, want 10, 0", v, spread)
	}
	if v, _ := overSlices([]float64{1, 2, 3, 4, 5}, "lower"); v != 2 {
		t.Errorf("lower-is-better takes the lower quartile: got %v, want 2", v)
	}
	if v, _ := overSlices([]float64{1, 2, 3, 4, 5}, "higher"); v != 4 {
		t.Errorf("higher-is-better takes the upper quartile: got %v, want 4", v)
	}
}

// TestCalmSum: like slices are priced at their calm quartile, unlike ones
// are only added up.
func TestCalmSum(t *testing.T) {
	perUnit := []float64{1, 4, 4, 4, 8, 2, 2, 2, 2, 0}
	units := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 0}
	// One phase of its own, then three like slices with one disturbed,
	// then four like slices and an empty one.
	phases := [][]int{{0}, {1, 2, 3, 4}, {5, 6, 7, 8, 9}}
	acc := calmSum(perUnit, units, phases)
	if want := 1*10.0 + 4*40 + 2*40; acc.total != want {
		t.Errorf("calmSum total = %v, want %v", acc.total, want)
	}
	// Only the middle phase has any spread: its IQR is 1 around a median of 4.
	if want := 0.25 * 160; acc.spread != want {
		t.Errorf("calmSum spread = %v, want %v", acc.spread, want)
	}
	if m := calmMean(perUnit, units, phases); m.total != acc.total/90 {
		t.Errorf("calmMean = %v, want %v", m.total, acc.total/90)
	}
	// Events at slices 1 and 4, the rebuild running through slices 4 and 5.
	sc := engineScenario{events: []engineEvent{{slice: 1}, {slice: 4}}}
	var rebuilding [nSlices]bool
	rebuilding[4], rebuilding[5] = true, true
	if got, want := sc.phases(rebuilding), [][]int{{0}, {1, 2, 3}, {4}, {5}, {6, 7, 8, 9}}; !reflect.DeepEqual(got, want) {
		t.Errorf("phases = %v, want %v", got, want)
	}
	if got, want := (engineScenario{}).phases([nSlices]bool{}), [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}; !reflect.DeepEqual(got, want) {
		t.Errorf("phases without events = %v, want %v", got, want)
	}
}

// TestRanShare: no stolen time leaves wall time alone; stolen time equal
// to CPU time halves it.
func TestRanShare(t *testing.T) {
	var a clocks
	if got := ranShare(a, clocks{cpu: 100}); got != 1 {
		t.Errorf("ranShare without stolen time = %v, want 1", got)
	}
	if got := ranShare(a, clocks{cpu: 100, stolen: 100}); got != 0.5 {
		t.Errorf("ranShare with as much stolen as run = %v, want 0.5", got)
	}
	if stolenTime() < 0 {
		t.Error("stolenTime is negative")
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 0.5},      // not even p90 has ten samples beyond it
		{100, 0.9},     // 10 beyond p90
		{999, 0.95},    // 49 beyond p95, 9.99 beyond p99
		{1000, 0.99},   // exactly 10 beyond p99
		{10000, 0.999}, // 10 beyond p99.9
		{100000, 0.9999},
	} {
		if q, _ := tailQuantile(mk(c.n)); q != c.want {
			t.Errorf("n=%d: picked p%v, want p%v", c.n, 100*q, 100*c.want)
		}
	}
	// p99 falls back to that percentile when it cannot be supported.
	if got, want := p99(mk(200)), quantile(mk(200), 0.95); got != want {
		t.Errorf("p99 of 200 samples = %v, want the p95 %v", got, want)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "cycle", StartNs: 0, EndNs: 100},
		{ID: 2, Name: "netserve.StepCycle", StartNs: 0, EndNs: 30, Parent: 1},
		{ID: 3, Name: "netserve.flush_wait", StartNs: 30, EndNs: 100, Parent: 1},
		// Two clients overlap each other, and one started waiting before
		// its parent began: the covered part is the union, clipped.
		{ID: 4, Name: "client.next", StartNs: 10, EndNs: 60, Parent: 3},
		{ID: 5, Name: "client.verify", StartNs: 50, EndNs: 80, Parent: 3},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 0, 2: 30, 3: 20, 4: 50, 5: 30}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	rows := budget(spans)
	byName := map[string]budgetRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["netserve.flush_wait"]; r.Count != 1 || math.Abs(r.SelfMs-20e-6) > 1e-12 {
		t.Errorf("budget flush_wait = %+v", r)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestNamesMatchBenchmarkJSON holds the program's metric and workload
// lists equal to the contract file at the root of the repository.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the allowed alphabet or length", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is outside the allowed alphabet or length", unit, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		check(w.Name, "")
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q (%q), program %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		check(d.Name, d.Unit)
		g := f.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d: file has %+v, program %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d (at most 128)", len(f.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		check(d.Name, d.Unit)
		g := f.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d: file has %+v, program %+v", i, g, d)
		}
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default window %d", f.RunSeconds, defaultSeconds)
	}
}

var toyConfig = runConfig{seed: 7, seconds: 0.5, warmup: 0.1, toy: true}

// TestSmokeAllWorkloads runs every workload at toy size, untraced and
// traced, and requires a correct result that sets every metric of the
// mode — and nothing that is not in the lists.
func TestSmokeAllWorkloads(t *testing.T) {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.Name] = true
	}
	for _, d := range perLayer {
		known[d.Name] = true
	}
	for _, w := range allWorkloads() {
		for _, traced := range []bool{false, true} {
			cfg := toyConfig
			cfg.trace = traced
			res, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			for _, v := range res.violations {
				t.Errorf("%s traced=%v: violation: %s", w.Name, traced, v)
			}
			for name := range res.values {
				if !known[name] {
					t.Errorf("%s: emits %q, which is in neither metric list", w.Name, name)
				}
			}
			for _, d := range endToEnd {
				if v, ok := res.values[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: end-to-end %s = %v (set=%v), want a positive number", w.Name, traced, d.Name, v, ok)
				}
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s: attempted %d, failed %d", w.Name, res.attempted, res.failed)
			}
			if traced {
				if len(res.spans) == 0 {
					t.Errorf("%s: the traced run recorded no spans", w.Name)
				}
				if res.values["buffer.outstanding_end"] != 0 {
					t.Errorf("%s: buffer.outstanding_end = %v", w.Name, res.values["buffer.outstanding_end"])
				}
			}
		}
	}
}

// TestSeedDeterminism: the same seed gives identical exact counts, and
// another seed gives another Zipf draw.
func TestSeedDeterminism(t *testing.T) {
	counts := func(seed int64) map[string]float64 {
		cfg := toyConfig
		cfg.seed, cfg.trace = seed, true
		res, err := runEngineDegraded(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for name, v := range res.values {
			if isExact("engine-degraded", name) {
				out[name] = v
			}
		}
		return out
	}
	a, b := counts(3), counts(3)
	if len(a) < 20 {
		t.Fatalf("only %d exact counts reported", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		for k := range a {
			if a[k] != b[k] {
				t.Errorf("same seed, %s: %v then %v", k, a[k], b[k])
			}
		}
	}

	draw := func(seed int64) []string {
		cfg := runConfig{seed: seed, seconds: 2, warmup: 1}
		_, titles, _, err := pacedSchedule(cfg, pacedFull, newCatalog("title", pacedFull.titles, 1).names)
		if err != nil {
			t.Fatal(err)
		}
		return titles
	}
	if !reflect.DeepEqual(draw(1), draw(1)) {
		t.Error("same seed gave two different Zipf draws")
	}
	if reflect.DeepEqual(draw(1), draw(2)) {
		t.Error("seeds 1 and 2 gave the same Zipf draw")
	}
}

func TestPacedScheduleFixedCounts(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := runConfig{seed: seed, seconds: 4, warmup: 1}
		sessions, _, nWarm, err := pacedSchedule(cfg, pacedFull, []string{"a", "b", "c"})
		if err != nil {
			t.Fatal(err)
		}
		if nWarm != 40 || len(sessions) != 200 {
			t.Fatalf("seed %d: %d warm-up of %d sessions, want 40 of 200", seed, nWarm, len(sessions))
		}
		for i, s := range sessions {
			if s.measured != (i >= nWarm) || (i > 0 && s.due < sessions[i-1].due) {
				t.Fatalf("seed %d: session %d out of order or mislabelled", seed, i)
			}
		}
		if last := sessions[len(sessions)-1].due.Seconds(); math.Abs(last-5) > 1e-6 {
			t.Errorf("seed %d: last arrival at %.6fs, want it to close the 5s run", seed, last)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "cycle_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "tracks_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d            metricDef
		a, b, sa, sb float64
		want         string
	}{
		{lower, 10, 10.9, 0.01, 0.01, "ok"},
		{lower, 10, 11.5, 0.01, 0.01, "regressed"},
		{lower, 10, 5, 0.01, 0.01, "ok"},
		{higher, 100, 95, 0.01, 0.01, "ok"},
		{higher, 100, 85, 0.01, 0.01, "regressed"},
		{higher, 100, 85, 0.20, 0.01, "unresolved"},
		{lower, 0, 1, 0, 0, "unresolved"},
	} {
		if got, _ := verdict(c.d, c.a, c.b, c.sa, c.sb); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, spreads %v/%v) = %s, want %s", c.d.Name, c.a, c.b, c.sa, c.sb, got, c.want)
		}
	}
}
