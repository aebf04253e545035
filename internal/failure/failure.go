// Package failure estimates the reliability quantities of §5 by
// continuous-time Monte-Carlo simulation, validating the paper's closed
// forms (equations (4)-(6)).
//
// Disks fail independently at rate 1/MTTF and are repaired in exponential
// time with mean MTTR. A catastrophic failure is a pair of concurrently
// failed disks that share a parity group family:
//
//   - dedicated parity (SR/SG/NC): two failures in the same cluster;
//   - intermixed parity (IB): two failures in the same cluster or in
//     adjacent clusters (cluster i's parity lives on cluster i+1, so a
//     pair {i, i+1} loses the groups that span both failed drives).
//
// Note the intermixed exposure seen by the simulation is 3C-1 (same
// cluster, next cluster, and previous cluster) where the paper's equation
// (5) uses 2C-1 — it counts only one adjacent side; the Monte-Carlo
// results quantify the difference (see EXPERIMENTS.md).
//
// Degradation of service is K concurrent failures anywhere in the farm
// (equation (6)): the K-th overlapping failure finds the shared reserve —
// buffer servers (NC) or spare bandwidth (IB) — exhausted.
package failure

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"ftmm/internal/layout"
	"ftmm/internal/units"
)

// Model is one reliability design point.
type Model struct {
	// D is the number of disks, C the cluster size.
	D, C int
	// MTTFHours and MTTRHours are per-disk failure and repair means.
	MTTFHours, MTTRHours float64
	// Placement selects the catastrophe topology.
	Placement layout.Placement
	// K is the reserve depth for degradation of service.
	K int
}

// Validate reports whether the model is well-formed.
func (m Model) Validate() error {
	switch {
	case m.C < 2:
		return fmt.Errorf("failure: cluster size %d must be >= 2", m.C)
	case m.D < m.C || m.D%m.C != 0:
		return fmt.Errorf("failure: %d disks is not a whole number of clusters of %d", m.D, m.C)
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
	Trials       int
	MeanHours    float64
	StdErrHours  float64
	MeanYears    units.Years
	AnalyticNote string
}

// farmState tracks concurrent failures during one trial.
type farmState struct {
	m          Model
	rng        *rand.Rand
	failed     map[int]float64 // disk -> repair completion time
	perCluster []int
}

func newFarmState(m Model, rng *rand.Rand) *farmState {
	return &farmState{
		m: m, rng: rng,
		failed:     make(map[int]float64),
		perCluster: make([]int, m.D/m.C),
	}
}

// step advances to the next event (failure or repair) and returns the
// disk that failed, or -1 for a repair event, plus the new clock.
func (f *farmState) step(now float64) (int, float64) {
	lambda := 1 / f.m.MTTFHours
	operational := f.m.D - len(f.failed)
	tFail := now + f.rng.ExpFloat64()/(lambda*float64(operational))

	repairDisk, tRepair := -1, math.Inf(1)
	for d, t := range f.failed {
		if t < tRepair {
			repairDisk, tRepair = d, t
		}
	}
	if tRepair < tFail {
		delete(f.failed, repairDisk)
		f.perCluster[repairDisk/f.m.C]--
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
	f.perCluster[d/f.m.C]++
	return d, tFail
}

// catastrophicWith reports whether the newly failed disk forms a
// catastrophic pair with any other failed disk.
func (f *farmState) catastrophicWith(d int) bool {
	cl := d / f.m.C
	if f.perCluster[cl] >= 2 {
		return true
	}
	if f.m.Placement == layout.IntermixedParity {
		nc := len(f.perCluster)
		if f.perCluster[(cl+1)%nc] >= 1 || f.perCluster[(cl+nc-1)%nc] >= 1 {
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
		MeanYears:   units.YearsFromHours(mean),
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
	if err := m.Validate(); err != nil {
		return Estimate{}, err
	}
	if trials < 1 {
		return Estimate{}, errors.New("failure: need at least one trial")
	}
	e := estimate(sample(trials, seed, workers, m.timeToCatastrophe))
	e.AnalyticNote = "equations (4)-(5)"
	return e, nil
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
	dataPerCluster := make([]int, m.D/m.C)
	// Recompute cluster data-failure counts from the failed set after
	// each event (cheap at these sizes, and immune to ordering bugs).
	recount := func() int {
		for i := range dataPerCluster {
			dataPerCluster[i] = 0
		}
		busy := 0
		for d := range f.failed {
			if d%m.C == m.C-1 {
				continue // dedicated parity drive
			}
			cl := d / m.C
			if dataPerCluster[cl] == 0 {
				busy++
			}
			dataPerCluster[cl]++
		}
		return busy
	}
	for {
		d, t := f.step(now)
		now = t
		if d < 0 {
			continue // repair
		}
		if d%m.C == m.C-1 {
			continue // parity drive: no server needed
		}
		busy := recount() // includes the new failure
		if dataPerCluster[d/m.C] > 1 {
			// Same cluster again: catastrophic, not a new server demand.
			continue
		}
		// The new cluster demands a server; servers are sticky, so if
		// demand now exceeds K the newcomer finds none: degradation.
		if busy > m.K {
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
	if err := m.Validate(); err != nil {
		return Estimate{}, err
	}
	if m.K < 1 {
		return Estimate{}, errors.New("failure: degradation needs K >= 1")
	}
	if trials < 1 {
		return Estimate{}, errors.New("failure: need at least one trial")
	}
	e := estimate(sample(trials, seed, workers, m.timeToServerExhaustion))
	e.AnalyticNote = "scheme-faithful NC degradation (cf. equation (6))"
	return e, nil
}

// EstimateMTTDS runs trials degradation simulations (time to K
// overlapping failures) across GOMAXPROCS workers.
func (m Model) EstimateMTTDS(trials int, seed int64) (Estimate, error) {
	return m.EstimateMTTDSWorkers(trials, seed, 0)
}

// EstimateMTTDSWorkers is EstimateMTTDS with an explicit worker count
// (<= 0 means GOMAXPROCS).
func (m Model) EstimateMTTDSWorkers(trials int, seed int64, workers int) (Estimate, error) {
	if err := m.Validate(); err != nil {
		return Estimate{}, err
	}
	if m.K < 1 {
		return Estimate{}, errors.New("failure: degradation needs K >= 1")
	}
	if trials < 1 {
		return Estimate{}, errors.New("failure: need at least one trial")
	}
	e := estimate(sample(trials, seed, workers, m.timeToKOverlapping))
	e.AnalyticNote = "equation (6)"
	return e, nil
}

// AnalyticMTTFHours returns the paper's closed form for the model:
// MTTF²/(D·(C-1)·MTTR) for dedicated parity, MTTF²/(D·(2C-1)·MTTR) for
// intermixed (equations (4)-(5)).
func (m Model) AnalyticMTTFHours() float64 {
	exposure := float64(m.C - 1)
	if m.Placement == layout.IntermixedParity {
		exposure = float64(2*m.C - 1)
	}
	return m.MTTFHours * m.MTTFHours / (float64(m.D) * exposure * m.MTTRHours)
}

// CorrectedIntermixedMTTFHours returns the exposure the simulation
// actually sees for intermixed parity — 3C-1 rather than the paper's
// 2C-1 (both adjacent clusters can pair with a failure, not just the
// right-hand one). For three or more clusters this is the form the
// Monte-Carlo results converge to.
func (m Model) CorrectedIntermixedMTTFHours() float64 {
	return m.MTTFHours * m.MTTFHours / (float64(m.D) * float64(3*m.C-1) * m.MTTRHours)
}

// AnalyticMTTDSHours returns equation (6):
// MTTF^K/(D·(D-1)·…·(D-K+1)·MTTR^(K-1)).
func (m Model) AnalyticMTTDSHours() float64 {
	h := math.Pow(m.MTTFHours, float64(m.K))
	for i := 0; i < m.K; i++ {
		h /= float64(m.D - i)
	}
	return h / math.Pow(m.MTTRHours, float64(m.K-1))
}
