package experiments

import (
	"time"

	"ftmm/internal/failure"
)

// Result is one completed experiment run.
type Result struct {
	Name        string
	Description string
	Output      Output
	Err         error
	// Wall is the experiment's wall-clock runtime.
	Wall time.Duration
}

// Run executes one experiment and times it.
func Run(e Named, opts Options) Result {
	start := time.Now()
	out, err := e.Run(opts)
	return Result{
		Name: e.Name, Description: e.Description,
		Output: out, Err: err, Wall: time.Since(start),
	}
}

// RunAll executes every registered experiment across at most workers
// goroutines (0 means GOMAXPROCS, 1 runs serial). Experiments are
// independent — each builds its own farms and rigs — and results return
// in registry order at any worker count.
func RunAll(opts Options, workers int) []Result {
	exps := All()
	results := make([]Result, len(exps))
	// A failing experiment reports in its Result, so no item fails.
	_ = failure.RunTrials(len(exps), workers, func(i int) error {
		results[i] = Run(exps[i], opts)
		return nil
	})
	return results
}
