// Package failure estimates the reliability quantities of §5 by
// continuous-time Monte-Carlo simulation and exact Markov chains, as
// checks on the paper's closed forms (equations (4)-(6), package
// analytic).
//
// Disks fail independently at rate 1/MTTF and are repaired in exponential
// time with mean MTTR. A catastrophic failure is a pair of concurrently
// failed disks that hold tracks of one parity group, as the layout
// places them (layout.Layout.SharesGroup): a disk's C-1 cluster mates
// under dedicated parity, the G-1 others of its declustering group under
// declustered parity, and 3(C-1) disks under intermixed parity (2(C-1)
// on two clusters), where the paper's equation (5) counts 2C-1.
//
// Degradation of service is K concurrent failures anywhere in the farm
// (equation (6)): the K-th overlapping failure finds the shared reserve —
// buffer servers (NC) or spare bandwidth (IB) — exhausted.
package failure

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"ftmm/internal/layout"
)

// Model is one reliability design point.
type Model struct {
	// Layout is the farm: its drives, and the parity groups it places,
	// which decide what pairs of failures are catastrophic. Only its
	// topology is read; it may be shared by concurrent estimates.
	Layout *layout.Layout
	// MTTFHours and MTTRHours are per-disk failure and repair means.
	MTTFHours, MTTRHours float64
	// K is the reserve depth for degradation of service.
	K int
}

// disks returns the farm's drive count.
func (m Model) disks() int { return m.Layout.Clusters() * m.Layout.ClusterSize() }

// Validate reports whether the model is well-formed.
func (m Model) Validate() error {
	switch {
	case m.Layout == nil:
		return errors.New("failure: no layout")
	case m.MTTFHours <= 0 || m.MTTRHours <= 0:
		return errors.New("failure: MTTF and MTTR must be positive")
	case m.MTTFHours <= m.MTTRHours:
		return errors.New("failure: MTTF must exceed MTTR")
	case m.K < 0:
		return errors.New("failure: negative reserve depth")
	}
	return nil
}

// Estimate is a Monte-Carlo mean with its standard error.
type Estimate struct {
	Trials      int
	MeanHours   float64
	StdErrHours float64
}

// farmState tracks concurrent failures during one trial.
type farmState struct {
	m      Model
	d      int
	rng    *rand.Rand
	failed map[int]float64 // disk -> repair completion time
}

func newFarmState(m Model, rng *rand.Rand) *farmState {
	return &farmState{m: m, d: m.disks(), rng: rng, failed: make(map[int]float64)}
}

// step advances to the next event (failure or repair) and returns the
// disk that failed, or -1 for a repair event, plus the new clock.
func (f *farmState) step(now float64) (int, float64) {
	lambda := 1 / f.m.MTTFHours
	operational := f.d - len(f.failed)
	tFail := now + f.rng.ExpFloat64()/(lambda*float64(operational))

	repairDisk, tRepair := -1, math.Inf(1)
	for d, t := range f.failed {
		if t < tRepair {
			repairDisk, tRepair = d, t
		}
	}
	if tRepair < tFail {
		delete(f.failed, repairDisk)
		return -1, tRepair
	}
	// Pick a uniformly random operational disk.
	idx := f.rng.Intn(operational)
	d := 0
	for {
		if _, down := f.failed[d]; !down {
			if idx == 0 {
				break
			}
			idx--
		}
		d++
	}
	f.failed[d] = tFail + f.rng.ExpFloat64()*f.m.MTTRHours
	return d, tFail
}

// catastrophicWith reports whether the newly failed disk shares a
// parity group with any other failed disk.
func (f *farmState) catastrophicWith(d int) bool {
	for other := range f.failed {
		if f.m.Layout.SharesGroup(d, other) {
			return true
		}
	}
	return false
}

// timeToCatastrophe runs one trial.
func (m Model) timeToCatastrophe(rng *rand.Rand) float64 {
	f := newFarmState(m, rng)
	now := 0.0
	for {
		d, t := f.step(now)
		now = t
		if d >= 0 && f.catastrophicWith(d) {
			return now
		}
	}
}

// timeToKOverlapping runs one degradation trial: the first instant K
// disks are down simultaneously.
func (m Model) timeToKOverlapping(rng *rand.Rand) float64 {
	if m.K <= 0 {
		return 0
	}
	f := newFarmState(m, rng)
	now := 0.0
	for {
		d, t := f.step(now)
		now = t
		if d >= 0 && len(f.failed) >= m.K {
			return now
		}
	}
}

// TrialSeed derives the RNG seed of trial i from the caller's seed with
// a splitmix64 finalizer. Each trial owns an independent source, so
// sample i depends only on (seed, i) — never on which worker ran it or
// how many trials precede it — and nearby caller seeds do not produce
// overlapping trial streams (a naive seed+i would share all but one
// stream between seeds 42 and 43). It is exported as the repo-wide
// convention for deriving per-trial seeds (the chaos campaign engine
// uses it for per-run schedule seeds).
func TrialSeed(seed int64, i int) int64 {
	z := uint64(seed) + (uint64(i)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// RunTrials is the repo's one worker pool. It runs fn(0..n-1) —
// independent items such as Monte-Carlo trials, chaos campaign runs or
// experiments — across at most workers goroutines (workers <= 0 means
// GOMAXPROCS; 1 runs inline), and fn(i) keeps its result in slot i of
// the caller's slice, so results come back in item order. Items are
// statically partitioned — worker w runs items w, w+W, w+2W, … in
// increasing order — so which goroutine runs an item depends only on the
// item index and the worker count, never on scheduling. Any worker count
// yields the same outcome: when several items fail, the error of the
// lowest index is returned.
func RunTrials(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				errs[i] = fn(i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sample runs trials independent simulations of fn across at most
// workers goroutines (workers <= 0 means GOMAXPROCS) and returns the
// samples in trial order. Results are bit-identical at any worker count.
func sample(trials int, seed int64, workers int, fn func(*rand.Rand) float64) []float64 {
	samples := make([]float64, trials)
	_ = RunTrials(trials, workers, func(i int) error { // a trial cannot fail
		samples[i] = fn(rand.New(rand.NewSource(TrialSeed(seed, i))))
		return nil
	})
	return samples
}

// estimate folds samples into a mean and standard error. Summation is
// serial and in trial order, so the floating-point result is exactly
// reproducible for a given (seed, trials) pair.
func estimate(samples []float64) Estimate {
	n := float64(len(samples))
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= n
	varsum := 0.0
	for _, s := range samples {
		varsum += (s - mean) * (s - mean)
	}
	stderr := 0.0
	if len(samples) > 1 {
		stderr = math.Sqrt(varsum / (n - 1) / n)
	}
	return Estimate{
		Trials:      len(samples),
		MeanHours:   mean,
		StdErrHours: stderr,
	}
}

// EstimateMTTF runs trials independent catastrophe simulations across
// GOMAXPROCS workers.
func (m Model) EstimateMTTF(trials int, seed int64) (Estimate, error) {
	return m.EstimateMTTFWorkers(trials, seed, 0)
}

// EstimateMTTFWorkers is EstimateMTTF with an explicit worker count
// (<= 0 means GOMAXPROCS). The estimate is identical at any count.
func (m Model) EstimateMTTFWorkers(trials int, seed int64, workers int) (Estimate, error) {
	return m.run(trials, seed, workers, false, m.timeToCatastrophe)
}

// timeToServerExhaustion simulates the Non-clustered scheme's actual
// degradation condition, which equation (6) only approximates: a buffer
// server is occupied per cluster with a failed *data* disk (parity-disk
// failures need no server, and a second failure in an already-degraded
// cluster is a catastrophe, not a new server demand). Degradation is the
// first data-disk failure that finds all K servers busy.
func (m Model) timeToServerExhaustion(rng *rand.Rand) float64 {
	f := newFarmState(m, rng)
	now := 0.0
	c := m.Layout.ClusterSize()
	failedData := make([]int, m.Layout.Clusters()) // per cluster
	for {
		d, t := f.step(now)
		now = t
		if d < 0 || m.Layout.Role(d) == layout.RoleParity {
			continue // a repair, or a failure that needs no server
		}
		// Recount from the failed set, which includes the new failure.
		clear(failedData)
		busy := 0
		for o := range f.failed {
			if m.Layout.Role(o) != layout.RoleParity {
				failedData[o/c]++
				if failedData[o/c] == 1 {
					busy++
				}
			}
		}
		// A second failure in a degraded cluster is a catastrophe, not a
		// new server demand. Servers are sticky, so if demand now
		// exceeds K the newcomer finds none: degradation.
		if failedData[d/c] == 1 && busy > m.K {
			return now
		}
	}
}

// EstimateMTTDSNonClustered runs trials of the scheme-faithful
// Non-clustered degradation simulation. It is longer than equation (6)'s
// estimate on two counts: parity-drive failures (1/C of all failures)
// never consume a server, and repeat failures within a degraded cluster
// are catastrophes rather than server demands.
func (m Model) EstimateMTTDSNonClustered(trials int, seed int64) (Estimate, error) {
	return m.EstimateMTTDSNonClusteredWorkers(trials, seed, 0)
}

// EstimateMTTDSNonClusteredWorkers is EstimateMTTDSNonClustered with an
// explicit worker count (<= 0 means GOMAXPROCS).
func (m Model) EstimateMTTDSNonClusteredWorkers(trials int, seed int64, workers int) (Estimate, error) {
	return m.run(trials, seed, workers, true, m.timeToServerExhaustion)
}

// EstimateMTTDS runs trials degradation simulations (time to K
// overlapping failures) across GOMAXPROCS workers.
func (m Model) EstimateMTTDS(trials int, seed int64) (Estimate, error) {
	return m.EstimateMTTDSWorkers(trials, seed, 0)
}

// EstimateMTTDSWorkers is EstimateMTTDS with an explicit worker count
// (<= 0 means GOMAXPROCS).
func (m Model) EstimateMTTDSWorkers(trials int, seed int64, workers int) (Estimate, error) {
	return m.run(trials, seed, workers, true, m.timeToKOverlapping)
}

// run validates the model and the trial count, then folds trials samples
// of fn. A degradation estimate (needK) needs K >= 1.
func (m Model) run(trials int, seed int64, workers int, needK bool, fn func(*rand.Rand) float64) (Estimate, error) {
	if err := m.Validate(); err != nil {
		return Estimate{}, err
	}
	if needK && m.K < 1 {
		return Estimate{}, errors.New("failure: degradation needs K >= 1")
	}
	if trials < 1 {
		return Estimate{}, errors.New("failure: need at least one trial")
	}
	return estimate(sample(trials, seed, workers, fn)), nil
}
