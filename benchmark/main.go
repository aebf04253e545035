// Command benchmark is the cycle benchmark: it drives the server's
// layers through their public functions on five workloads and reports
// how many verified tracks per second the farm sustains, how long one
// cycle's work takes, and what share of the tracks owed were delivered —
// end to end, and layer by layer in a traced run. See README.md.
//
//	bash benchmark/run.sh --workload wire-fanout --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh -workload all -json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

const (
	defaultSeconds = 15
	defaultWarmup  = 3
	// minNoFile is the descriptor limit the socket workloads need: 64
	// sessions are 128 descriptors in one process, and the open-loop
	// workload opens two connections per session on top of the nodes'
	// listeners and heartbeats.
	minNoFile = 1024
)

// metricOut is one metric in the JSON result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultOut is the result line: exactly the first four keys for a
// single workload. Under -workload all each entry also carries the
// timing metrics' spread (IQR over slices as a share of the median),
// which -compare needs to tell unresolved from regressed.
type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
	Spread    map[string]float64   `json:"spread,omitempty"`
}

// runStart is the clocks' reading when the process started, for the
// report's line on how much of the run the host took.
var runStart = readClocks()

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed         = flag.Int64("seed", 1, "seed for the workload's inputs")
		seconds      = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		traceFlag    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		jsonOnly     = flag.Bool("json", false, "print only the JSON result")
		traceOut     = flag.String("trace-out", "", "write the traced run's spans to this file, one JSON object per line")
		compare      = flag.Bool("compare", false, "compare two -json outputs given as arguments against the regression bounds")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args(), os.Stdout))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	if err := checkNoFile(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	// One process, one driver goroutine, clients as goroutines beside
	// it: cap the scheduler at four cores so a large box measures the
	// same shape of contention as a small one.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(nproc, 4))

	cfg := runConfig{seed: *seed, seconds: *seconds, warmup: defaultWarmup, trace: *traceFlag != 0}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		os.Exit(2)
	}
	if !*jsonOnly {
		printFingerprint(cfg, nproc)
	}

	if *workloadFlag != "all" {
		w, ok := findWorkload(*workloadFlag)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workloadFlag, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
		res, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		out := finish(res, cfg, *jsonOnly, *traceOut)
		line, _ := json.Marshal(out)
		fmt.Println(string(line))
		if !out.Correct {
			os.Exit(1)
		}
		return
	}

	// -workload all: every workload, untraced then traced, one combined
	// JSON object keyed by workload and mode.
	all := make(map[string]resultOut)
	ok := true
	for _, w := range allWorkloads() {
		for _, traced := range []bool{false, true} {
			c := cfg
			c.trace = traced
			res, err := w.run(c)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				os.Exit(1)
			}
			path := ""
			if *traceOut != "" {
				path = *traceOut + "." + w.Name
			}
			out := finish(res, c, *jsonOnly, path)
			out.Spread = res.spread
			ok = ok && out.Correct
			key := w.Name
			if traced {
				key += "/traced"
			}
			all[key] = out
		}
	}
	line, _ := json.Marshal(all)
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range allWorkloads() {
		names = append(names, w.Name)
	}
	return names
}

// checkNoFile refuses to run — rather than silently shrinking a
// workload — when the descriptor limit cannot hold the sessions.
func checkNoFile() error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("reading RLIMIT_NOFILE: %w", err)
	}
	if lim.Cur < minNoFile {
		return fmt.Errorf("RLIMIT_NOFILE is %d, the socket workloads need at least %d (raise it with ulimit -n)", lim.Cur, minNoFile)
	}
	return nil
}

// finish applies the sanity gates, prints the human-readable report and
// builds the result line: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func finish(res *result, cfg runConfig, quiet bool, traceOut string) resultOut {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if v := res.values["trace.overhead_pct"]; v > 10 {
			res.unresolved = append(res.unresolved, fmt.Sprintf("trace.overhead_pct is %.1f (> 10): the traced numbers are diluted", v))
		}
	}
	out := resultOut{
		Correct:   res.violationCount == 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, have := res.values[d.Name]
		if !have && !cfg.trace {
			res.violate("end-to-end metric %s was not measured", d.Name)
			out.Correct = false
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if traceOut != "" && cfg.trace {
		if err := writeSpans(traceOut, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing spans:", err)
			out.Correct = false
		}
	}
	if !quiet {
		printReport(res, cfg, defs)
	}
	return out
}

func printFingerprint(cfg runConfig, nproc int) {
	var uts syscall.Utsname
	kernel := "unknown"
	if err := syscall.Uname(&uts); err == nil {
		kernel = utsString(uts.Release[:])
	}
	fmt.Printf("# machine: nproc=%d GOMAXPROCS=%d go=%s kernel=%s loopback=true\n", nproc, runtime.GOMAXPROCS(0), runtime.Version(), kernel)
	fmt.Printf("# run: seed=%d window=%.1fs slices=%d x %.2fs warm-up=%.1fs set-up repeats=%d\n",
		cfg.seed, cfg.seconds, nSlices, cfg.seconds/nSlices, cfg.warmup, setupReps)
	if nproc < 2 {
		fmt.Println("# warning: one CPU — driver and clients share it, so wire-* and cluster-paced latencies include their own queueing")
	}
}

func utsString(b []int8) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

func printReport(res *result, cfg runConfig, defs []metricDef) {
	mode := "untraced, end to end"
	if cfg.trace {
		mode = "traced, per layer"
	}
	fmt.Printf("\n== %s (%s) ==\n", res.workload, mode)
	for _, d := range defs {
		v, have := res.values[d.Name]
		if !have && cfg.trace {
			continue // not exercised by this workload
		}
		line := fmt.Sprintf("%-40s %16.4f %-6s", d.Name, v, d.Unit)
		if s, ok := res.spread[d.Name]; ok {
			line += fmt.Sprintf("  IQR over slices %.1f%%", 100*s)
		}
		if n, ok := res.samples[d.Name]; ok {
			line += fmt.Sprintf("  n=%d", n)
		}
		fmt.Println(line)
	}
	fmt.Printf("tracks: attempted %d, failed %d\n", res.attempted, res.failed)
	fmt.Printf("host: took %.1f%% of the time this process was ready to run (kept out of the timings where the README says so)\n", 100*(1-ranShare(runStart, readClocks())))
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	if cfg.trace && len(res.spans) > 0 {
		fmt.Println("per-layer budget from the recorded spans (self = span minus its children; spans of")
		fmt.Println("parallel clients add up, so their share of the root can pass 100 %):")
		rows := budget(res.spans)
		var cycleMs float64
		for _, r := range rows {
			if r.Name == "cycle" || r.Name == "session" {
				cycleMs = r.TotalMs
			}
		}
		for _, r := range rows {
			share := 0.0
			if cycleMs > 0 {
				share = 100 * r.SelfMs / cycleMs
			}
			fmt.Printf("  %-24s n=%-8d total %10.1f ms  self %10.1f ms  %5.1f%% of root\n", r.Name, r.Count, r.TotalMs, r.SelfMs, share)
		}
	}
	for _, u := range res.unresolved {
		fmt.Println("UNRESOLVED:", u)
	}
	for _, v := range res.violations {
		fmt.Println("VIOLATION:", v)
	}
	if extra := res.violationCount - len(res.violations); extra > 0 {
		fmt.Printf("VIOLATION: ... and %d more\n", extra)
	}
	if res.violationCount == 0 {
		fmt.Println("correct: every delivered track verified, every invariant held")
	}
}
