package schemes

import (
	"testing"

	"ftmm/internal/layout"
)

// Steady-state per-cycle allocation budgets. The data path itself is
// allocation-free (read tracks are lent platter views, made tracks come
// from the arena's free list, group headers and per-Step scratch are
// recycled, report slices reused); what remains is small fixed-size
// bookkeeping — the per-cluster fan-out closure and, for NC, its reader
// table and map churn — all independent of track size and of the stream
// count. Observed on amd64: SR, IB and DC 3, NC 6; under -race up to 7,
// because the race detector makes sync.Pool drop a share of the Ref
// headers put back. The budgets sit above both, so they catch a
// regression back to per-stream or per-track allocation without flaking.
const (
	srCycleAllocBudget = 10
	ibCycleAllocBudget = 10
	dcCycleAllocBudget = 10
	ncCycleAllocBudget = 12
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
// engine's steady-state allocations per Step to budget. The engine must
// run with Workers 1: spawning read-phase goroutines allocates by design.
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
	cfg.Workers = 1
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
	cfg.Workers = 1
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
	cfg.Workers = 1
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
	cfg.Workers = 1
	e, err := NewDeclustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 4, dcCycleAllocBudget)
}
