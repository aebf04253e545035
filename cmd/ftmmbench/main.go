// Command ftmmbench regenerates every table and figure from the paper's
// evaluation (Tables 2-3, Figure 9(a)/(b), the §2 k-sweep, the inline
// MTTF examples), the behavioural figures (4, 5-8), and this
// reproduction's validation and extension experiments.
//
// Usage:
//
//	ftmmbench [flags] [experiment]
//
// Run `ftmmbench -list` for the experiment names; the default runs all.
// -workers N fans independent experiments out across N goroutines
// (results print in registry order regardless); -json emits
// machine-readable results (metric values plus wall-clock) instead of
// the rendered tables.
//
// Performance is not measured here: the cycle benchmark (benchmark/,
// BENCHMARK.json) times the serving path, and scripts/cycle_counts.sh
// gates CI on its exact counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ftmm/internal/experiments"
)

var (
	defaults = experiments.DefaultOptions()
	trials   = flag.Int("trials", defaults.Trials, "Monte-Carlo trials for the stochastic experiments")
	streams  = flag.Float64("streams", defaults.RequiredStreams, "required streams for the sizing experiment")
	list     = flag.Bool("list", false, "list experiments and exit")
	workers  = flag.Int("workers", 1, "experiments run concurrently (0 = GOMAXPROCS)")
	jsonOut  = flag.Bool("json", false, "emit machine-readable JSON results")
)

// jsonResult is the -json wire shape for one experiment.
type jsonResult struct {
	Name        string             `json:"name"`
	Description string             `json:"description"`
	WallMillis  float64            `json:"wall_ms"`
	Values      map[string]float64 `json:"values,omitempty"`
	Error       string             `json:"error,omitempty"`
}

func main() {
	flag.Usage = usage
	flag.Parse()
	os.Exit(run())
}

// run is main's body, returning the exit code.
func run() int {
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-12s %s\n", e.Name, e.Description)
		}
		return 0
	}

	opts := experiments.Options{Trials: *trials, RequiredStreams: *streams}
	want := "all"
	if flag.NArg() > 0 {
		want = flag.Arg(0)
	}

	var results []experiments.Result
	if want == "all" {
		results = experiments.RunAll(opts, *workers)
	} else {
		e, err := experiments.Find(want)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftmmbench: %v\n\n", err)
			usage()
			return 2
		}
		results = []experiments.Result{experiments.Run(e, opts)}
	}

	if *jsonOut {
		return emitJSON(results)
	}
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "ftmmbench: %s: %v\n", r.Name, r.Err)
			return 1
		}
		fmt.Printf("== %s — %s\n\n%s\n", r.Name, r.Description, r.Output.Text)
	}
	return 0
}

// emitJSON prints one JSON array with every result; experiment failures
// are reported in-band and reflected in the exit status.
func emitJSON(results []experiments.Result) int {
	out := make([]jsonResult, 0, len(results))
	failed := false
	for _, r := range results {
		jr := jsonResult{
			Name:        r.Name,
			Description: r.Description,
			WallMillis:  float64(r.Wall.Microseconds()) / 1000,
			Values:      r.Output.Values,
		}
		if r.Err != nil {
			jr.Error = r.Err.Error()
			failed = true
		}
		out = append(out, jr)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "ftmmbench: %v\n", err)
		return 1
	}
	if failed {
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: ftmmbench [flags] [experiment]

Run -list for experiment names; default runs all.

Flags:
`)
	flag.PrintDefaults()
}
