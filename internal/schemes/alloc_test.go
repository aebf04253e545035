package schemes

import (
	"testing"

	"ftmm/internal/layout"
)

// Steady-state per-cycle allocation budgets. The data path is
// allocation-free: read tracks are lent platter views, made tracks come
// from the arena's free list, group headers and per-Step scratch are
// recycled, report slices are reused, and a Step runs on its caller's
// goroutine. Observed on amd64: 0 for every engine. Under -race the
// detector makes sync.Pool drop a quarter of the Ref headers put back,
// so an engine allocates about a quarter of its per-cycle deliveries
// (here SR 2, DC 3, IB 4, SG and NC 0). Each budget sits two above
// that, so it catches a regression back to per-stream or per-track
// allocation without flaking.
const (
	srCycleAllocBudget = 4
	dcCycleAllocBudget = 5
	ibCycleAllocBudget = 6
	sgCycleAllocBudget = 2
	ncCycleAllocBudget = 2
)

// steadyStateAllocs measures allocations per Step once the engine is
// warmed up (arena populated, report slices grown).
func steadyStateAllocs(t *testing.T, e Simulator, warmup, runs int) float64 {
	t.Helper()
	for i := 0; i < warmup; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(runs, func() {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	})
}

// checkCycleAllocBudget admits one stream per object and holds the
// engine's steady-state allocations per Step to budget.
func checkCycleAllocBudget(t *testing.T, e Simulator, r *rig, objects, budget int) {
	t.Helper()
	for i := 0; i < objects; i++ {
		if _, err := e.AddStream(r.object(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	n := steadyStateAllocs(t, e, 5, 20)
	t.Logf("%s steady-state allocs/cycle: %.1f", e.Name(), n)
	if n > float64(budget) {
		t.Errorf("%s allocates %.1f per cycle, budget %d", e.Name(), n, budget)
	}
	if e.Active() == 0 {
		t.Fatal("streams finished during measurement; grow the rig")
	}
}

// TestSRSteadyStateCycleAllocBudget pins the Streaming RAID engine to a
// fixed small per-cycle allocation budget in steady state.
func TestSRSteadyStateCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 2, 60, layout.DedicatedParity)
	cfg := r.config()
	e, err := NewStreamingRAID(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 2, srCycleAllocBudget)
}

// TestNCSteadyStateCycleAllocBudget pins the Non-clustered engine's
// normal-mode cycle to a fixed small allocation budget.
func TestNCSteadyStateCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 2, 60, layout.DedicatedParity)
	cfg := r.config()
	e, err := NewNonClustered(cfg, SimpleSwitchover, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 2, ncCycleAllocBudget)
}

// TestIBSteadyStateCycleAllocBudget pins the Improved-bandwidth engine's
// normal-mode cycle: group reads, their headers and the shift's scratch
// are all reused from Step to Step.
func TestIBSteadyStateCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 4, 60, layout.IntermixedParity)
	cfg := r.config()
	e, err := NewImprovedBandwidth(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 4, ibCycleAllocBudget)
}

// TestDCSteadyStateCycleAllocBudget pins the Declustered engine, the
// whole-group chassis over a block-design layout.
func TestDCSteadyStateCycleAllocBudget(t *testing.T) {
	r := newDeclusteredRig(t, 26, 13, 4, 4, 60)
	cfg := r.config()
	e, err := NewDeclustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 4, dcCycleAllocBudget)
}

// TestSGSteadyStateCycleAllocBudget pins the Staggered-group engine:
// its read cycles stage whole groups into recycled headers, its other
// cycles only deliver.
func TestSGSteadyStateCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 2, 60, layout.DedicatedParity)
	e, err := NewStaggeredGroup(r.config())
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 2, sgCycleAllocBudget)
}
