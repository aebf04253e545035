package chaos

import (
	"errors"
	"math/rand"

	"ftmm/internal/failure"
)

// CampaignConfig configures a batch of generated chaos runs.
type CampaignConfig struct {
	// Seed is the campaign's master seed. Run i derives its own seed
	// with failure.TrialSeed(Seed, i), so results depend only on (Seed,
	// i) — never on worker count or completion order.
	Seed int64
	// Runs is how many schedules to generate and execute (default 20).
	Runs int
	// Schemes rotates scheme names across runs (run i uses
	// Schemes[i%len]); default SchemeNames().
	Schemes []string
	// Workers bounds campaign-level parallelism: 0 uses GOMAXPROCS, 1
	// runs serial. Results are bit-identical at any setting.
	Workers int
	// NewCheckers builds a fresh checker set per run (and per shrink
	// attempt); default DefaultCheckers.
	NewCheckers func() []Checker
	// Nodes is how many shards Generate spreads each schedule across
	// (with node kill/drain events once there is more than one); 0 or 1
	// is the classic single-server campaign.
	Nodes int
	// NewClusterCheckers builds the run-wide checker set per run;
	// default DefaultClusterCheckers.
	NewClusterCheckers func() []ClusterChecker
	// Hooks are threaded into every run, letting tests inject engine
	// bugs the campaign must catch.
	Hooks Hooks
	// NoShrink skips trace minimization (for quick smoke runs).
	NoShrink bool
}

// RunRecord is one violating run of a campaign.
type RunRecord struct {
	Run    int    `json:"run"`
	Seed   int64  `json:"seed"`
	Scheme string `json:"scheme"`
	// Events is the generated schedule's event count, before shrinking.
	Events    int       `json:"events"`
	Violation Violation `json:"violation"`
	// Shrunk is the minimized reproducing schedule; its JSON is a
	// scenario file that replays it. Equal to the generated schedule
	// when shrinking is disabled.
	Shrunk Schedule `json:"shrunk"`
}

// CampaignResult is a campaign's deterministic outcome: every violating
// run in run order. Serializing it with encoding/json yields the
// byte-identical artifact the reproducibility tests compare.
type CampaignResult struct {
	Runs       int         `json:"runs"`
	Violations []RunRecord `json:"violations"`
}

// Campaign generates and executes cfg.Runs schedules across a worker
// pool, shrinking every violation to a minimal reproducing trace.
func Campaign(cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.Runs <= 0 {
		cfg.Runs = 20
	}
	if len(cfg.Schemes) == 0 {
		cfg.Schemes = SchemeNames()
	}
	records := make([]*RunRecord, cfg.Runs)
	titles := &titleCache{m: make(map[titleKey]*cachedTitle)}
	// failure.RunTrials is the repo's deterministic worker pool: run i
	// lands in slot i regardless of which worker ran it or when.
	err := failure.RunTrials(cfg.Runs, cfg.Workers, func(i int) error {
		seed := failure.TrialSeed(cfg.Seed, i)
		rng := rand.New(rand.NewSource(seed))
		scheme := cfg.Schemes[i%len(cfg.Schemes)]
		run := RunConfig{
			Schedule:    Generate(rng, scheme, cfg.Nodes),
			NewCheckers: cfg.NewCheckers, NewClusterCheckers: cfg.NewClusterCheckers,
			Hooks: cfg.Hooks, titles: titles,
		}
		res, err := Run(run)
		if err != nil {
			return err
		}
		if res.Violation == nil {
			return nil
		}
		shrunk := run.Schedule
		if !cfg.NoShrink {
			shrunk = Shrink(run, *res.Violation)
		}
		records[i] = &RunRecord{
			Run: i, Seed: seed, Scheme: scheme,
			Events:    len(run.Schedule.Events),
			Violation: *res.Violation,
			Shrunk:    shrunk,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &CampaignResult{Runs: cfg.Runs, Violations: []RunRecord{}}
	for _, r := range records {
		if r != nil {
			out.Violations = append(out.Violations, *r)
		}
	}
	return out, nil
}

// ErrViolations is returned by CheckResult when a campaign found any
// invariant breach.
var ErrViolations = errors.New("chaos: campaign found invariant violations")

// CheckResult folds a campaign result into pass/fail for CLI and CI
// callers.
func CheckResult(res *CampaignResult) error {
	if len(res.Violations) > 0 {
		return ErrViolations
	}
	return nil
}
