// Command benchpairs runs the cycle benchmark in alternating pairs: two
// prebuilt benchmark binaries, a base and a candidate, on one fresh seed
// per pair, with the side that runs first swapped every pair so that
// neither side always meets a cold or a warm machine. It writes one JSON
// file: for each workload and end-to-end metric of BENCHMARK.json, both
// medians and IQRs, the candidate's wins out of the pairs, and a verdict
// against the metric's bound; the per-pair values; and the machine and
// seeds it ran on. For the engine workloads it also runs one traced run
// per side and compares their exact counts (the list in
// benchmark/compare.go). Once the file is written it exits 1 if any
// exact count differs or any verdict is "worse".
//
// scripts/benchpairs.sh builds the two binaries from two revisions and
// runs this program from the root of the checkout, whose BENCHMARK.json
// and benchmark/compare.go it reads; see there for usage.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// metricDef is one end-to-end metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runResult is the part of the benchmark's -json result line read here.
type runResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type benchFile struct {
	Base      string        `json:"base"`
	Candidate string        `json:"candidate"`
	Box       box           `json:"box"`
	WindowS   float64       `json:"window_s"`
	Rule      string        `json:"rule"`
	Workloads []workloadOut `json:"workloads"`
}

type box struct {
	Nproc int    `json:"nproc"`
	CPU   string `json:"cpu"`
	Go    string `json:"go"`
}

type workloadOut struct {
	Name  string  `json:"name"`
	Pairs int     `json:"pairs"`
	Seeds []int64 `json:"seeds"`
	// BaseFirst[i] tells whether pair i ran the base first.
	BaseFirst          []bool      `json:"base_first"`
	BaseFailedShare    float64     `json:"base_failed_share"`
	CandFailedShare    float64     `json:"candidate_failed_share"`
	Metrics            []metricOut `json:"metrics"`
	ExactCounts        *exactOut   `json:"exact_counts,omitempty"`
	baseRuns, candRuns []runResult
}

type metricOut struct {
	Name       string    `json:"name"`
	Unit       string    `json:"unit"`
	Better     string    `json:"better"`
	Bound      float64   `json:"bound"`
	BaseMedian float64   `json:"base_median"`
	BaseIQR    float64   `json:"base_iqr"`
	CandMedian float64   `json:"candidate_median"`
	CandIQR    float64   `json:"candidate_iqr"`
	ChangePct  float64   `json:"change_pct"` // median change, positive = better
	Wins       int       `json:"wins"`
	Verdict    string    `json:"verdict"`
	Base       []float64 `json:"base"`
	Candidate  []float64 `json:"candidate"`
}

type exactOut struct {
	Seed    int64    `json:"seed"`
	Checked int      `json:"checked"`
	Differ  []string `json:"differ"`
}

const rule = "verdict per metric: worse if the candidate's median is worse than the base's by more than the bound; " +
	"better if the candidate wins at least 9 of every 10 pairs and the medians differ by more than the base's IQR; " +
	"unresolved if either side's IQR is wider than the bound (as a share of its median); flat otherwise"

func main() {
	var (
		baseBin = flag.String("base", "", "the base revision's benchmark binary")
		candBin = flag.String("cand", "", "the candidate revision's benchmark binary")
		baseRev = flag.String("base-rev", "", "the base revision, as recorded in the output")
		candRev = flag.String("cand-rev", "", "the candidate revision, as recorded in the output")
		specs   = flag.String("workloads", "engine-normal", "comma-separated workloads, each optionally name:pairs")
		pairs   = flag.Int("pairs", 3, "pairs for a workload given without :pairs")
		seed    = flag.Int64("seed", 1001, "first seed; each pair takes the next")
		seconds = flag.Float64("seconds", 15, "measured window of each run")
		out     = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	if *baseBin == "" || *candBin == "" {
		fmt.Fprintln(os.Stderr, "benchpairs: -base and -cand are required")
		os.Exit(2)
	}
	defs, err := loadDefs("BENCHMARK.json")
	if err != nil {
		fail(err)
	}
	exact, err := exactSuffixes("benchmark/compare.go")
	if err != nil {
		fail(err)
	}
	plan, err := parsePlan(*specs, *pairs)
	if err != nil {
		fail(err)
	}
	bf := benchFile{Base: *baseRev, Candidate: *candRev, Box: readBox(), WindowS: *seconds, Rule: rule}
	next := *seed
	for _, p := range plan {
		w := workloadOut{Name: p.name, Pairs: p.pairs}
		for i := range p.pairs {
			s := next
			next++
			w.Seeds = append(w.Seeds, s)
			w.BaseFirst = append(w.BaseFirst, i%2 == 0)
			var b, c runResult
			if i%2 == 0 {
				b, err = run(*baseBin, p.name, s, *seconds, false)
				if err == nil {
					c, err = run(*candBin, p.name, s, *seconds, false)
				}
			} else {
				c, err = run(*candBin, p.name, s, *seconds, false)
				if err == nil {
					b, err = run(*baseBin, p.name, s, *seconds, false)
				}
			}
			if err != nil {
				fail(err)
			}
			w.baseRuns, w.candRuns = append(w.baseRuns, b), append(w.candRuns, c)
			fmt.Fprintf(os.Stderr, "benchpairs: %s pair %d/%d seed %d done\n", p.name, i+1, p.pairs, s)
		}
		w.BaseFailedShare, w.CandFailedShare = failedShare(w.baseRuns), failedShare(w.candRuns)
		for _, d := range defs {
			bv, cv := values(w.baseRuns, d.Name), values(w.candRuns, d.Name)
			m := metricOut{
				Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound,
				BaseMedian: median(bv), BaseIQR: iqr(bv), CandMedian: median(cv), CandIQR: iqr(cv),
				ChangePct: 100 * change(d.Better, median(bv), median(cv)),
				Wins:      wins(d.Better, bv, cv), Verdict: verdict(d, bv, cv),
				Base: bv, Candidate: cv,
			}
			w.Metrics = append(w.Metrics, m)
		}
		if strings.HasPrefix(p.name, "engine-") {
			w.ExactCounts, err = checkExact(*baseBin, *candBin, p.name, w.Seeds[0], *seconds, exact)
			if err != nil {
				fail(err)
			}
		}
		bf.Workloads = append(bf.Workloads, w)
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	if bad := failures(bf); len(bad) > 0 {
		for _, f := range bad {
			fmt.Fprintln(os.Stderr, "benchpairs:", f)
		}
		os.Exit(1)
	}
}

// failures lists what makes a comparison fail: every exact count that
// differs between the sides, and every metric whose verdict is worse.
func failures(bf benchFile) []string {
	var out []string
	for _, w := range bf.Workloads {
		if w.ExactCounts != nil {
			for _, d := range w.ExactCounts.Differ {
				out = append(out, fmt.Sprintf("%s: exact count differs: %s", w.Name, d))
			}
		}
		for _, m := range w.Metrics {
			if m.Verdict == "worse" {
				out = append(out, fmt.Sprintf("%s: %s is worse: median %v -> %v (%+.1f%%, bound %v)",
					w.Name, m.Name, m.BaseMedian, m.CandMedian, m.ChangePct, m.Bound))
			}
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchpairs:", err)
	os.Exit(1)
}

type planned struct {
	name  string
	pairs int
}

// parsePlan reads "name[:pairs],…".
func parsePlan(specs string, pairs int) ([]planned, error) {
	var plan []planned
	for _, spec := range strings.Split(specs, ",") {
		name, n, ok := strings.Cut(strings.TrimSpace(spec), ":")
		p := planned{name, pairs}
		if ok {
			v, err := strconv.Atoi(n)
			if err != nil {
				return nil, fmt.Errorf("workload %q: pairs: %w", spec, err)
			}
			p.pairs = v
		}
		if p.name == "" || p.pairs < 1 {
			return nil, fmt.Errorf("workload %q: want name[:pairs] with pairs >= 1", spec)
		}
		plan = append(plan, p)
	}
	return plan, nil
}

// run runs one benchmark and returns its result line, which must report
// a correct run.
func run(bin, workload string, seed int64, seconds float64, traced bool) (runResult, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(bin, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace, "-json")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var r runResult
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); jerr != nil {
		return r, fmt.Errorf("%s %s seed %d: no result line (%v): %w", bin, workload, seed, err, jerr)
	}
	if err != nil || !r.Correct {
		return r, fmt.Errorf("%s %s seed %d: run not correct (%v)", bin, workload, seed, err)
	}
	return r, nil
}

// checkExact runs one traced run per side and lists every exact count
// that differs.
func checkExact(baseBin, candBin, workload string, seed int64, seconds float64, suffixes []string) (*exactOut, error) {
	b, err := run(baseBin, workload, seed, seconds, true)
	if err != nil {
		return nil, err
	}
	c, err := run(candBin, workload, seed, seconds, true)
	if err != nil {
		return nil, err
	}
	out := &exactOut{Seed: seed, Differ: []string{}}
	var names []string
	for name := range b.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if !slices.ContainsFunc(suffixes, func(s string) bool { return strings.HasSuffix(name, s) }) {
			continue
		}
		out.Checked++
		if x, y := b.Metrics[name].Value, c.Metrics[name].Value; x != y {
			out.Differ = append(out.Differ, fmt.Sprintf("%s: base %v, candidate %v", name, x, y))
		}
	}
	if out.Checked == 0 {
		return nil, fmt.Errorf("%s: the traced run reports none of the exact counts", workload)
	}
	return out, nil
}

// loadDefs reads BENCHMARK.json's end-to-end metrics.
func loadDefs(path string) ([]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(decl.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s declares no end-to-end metric", path)
	}
	return decl.EndToEnd, nil
}

// exactSuffixes reads the string list exactSuffixes from the benchmark's
// source, so the counts checked here are the ones -compare checks.
func exactSuffixes(path string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, err
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "exactSuffixes" || len(vs.Values) != 1 {
			return true
		}
		if lit, ok := vs.Values[0].(*ast.CompositeLit); ok {
			for _, e := range lit.Elts {
				if b, ok := e.(*ast.BasicLit); ok && b.Kind == token.STRING {
					s, _ := strconv.Unquote(b.Value)
					out = append(out, s)
				}
			}
		}
		return false
	})
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no exactSuffixes list", path)
	}
	return out, nil
}

func readBox() box {
	b := box{Nproc: runtime.NumCPU(), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				b.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return b
}

func values(runs []runResult, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

func failedShare(runs []runResult) float64 {
	var attempted, failed int64
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks (R's type 7).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// change is how much better cand is than base, as a share of base.
func change(better string, base, cand float64) float64 {
	if base == 0 {
		return 0
	}
	c := (cand - base) / math.Abs(base)
	if better == "lower" {
		c = -c
	}
	return c
}

// wins counts the pairs whose candidate value is strictly better.
func wins(better string, base, cand []float64) int {
	n := 0
	for i := range base {
		if better == "lower" && cand[i] < base[i] || better == "higher" && cand[i] > base[i] {
			n++
		}
	}
	return n
}

// verdict classifies one metric's pairs by the rule above.
func verdict(d metricDef, base, cand []float64) string {
	mb, mc := median(base), median(cand)
	if mb == 0 && mc == 0 {
		return "flat"
	}
	if mb == 0 {
		return "unresolved"
	}
	ch := change(d.Better, mb, mc)
	spread := func(xs []float64, m float64) float64 { return iqr(xs) / math.Abs(m) }
	switch {
	case -ch > d.Bound:
		return "worse"
	case ch > 0 && 10*wins(d.Better, base, cand) >= 9*len(base) && math.Abs(mc-mb) > iqr(base):
		return "better"
	case spread(base, mb) > d.Bound || mc != 0 && spread(cand, mc) > d.Bound:
		return "unresolved"
	}
	return "flat"
}
