package schemes

import (
	"testing"

	"ftmm/internal/layout"
	"ftmm/internal/sched"
)

// cycleAllocBudget is every engine's per-Step allocation budget once
// warmed up, healthy or degraded: none. Read tracks are platter views
// and carry no Ref, made tracks and their Ref headers come off the
// arena's free lists, a failed read returns a bare sentinel error,
// group headers and per-Step scratch are recycled, report slices are
// reused, and a Step runs on its caller's goroutine. The same holds
// under -race: nothing on the path goes through a sync.Pool, which the
// detector makes drop some of what is put back.
const cycleAllocBudget = 0

// steadyStateAllocs measures allocations per Step once the engine is
// warmed up (arena populated, report slices grown); check, when non-nil,
// sees every measured Step's report.
func steadyStateAllocs(t *testing.T, e Simulator, warmup, runs int, check func(*sched.CycleReport)) float64 {
	t.Helper()
	for i := 0; i < warmup; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(runs, func() {
		rep, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if check != nil {
			check(rep)
		}
	})
}

// checkCycleAllocBudget admits one stream per object and holds the
// engine's steady-state allocations per Step to the budget.
func checkCycleAllocBudget(t *testing.T, e Simulator, r *rig, objects int, check func(*sched.CycleReport)) {
	t.Helper()
	for i := 0; i < objects; i++ {
		if _, err := e.AddStream(r.object(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	n := steadyStateAllocs(t, e, 5, 20, check)
	t.Logf("%s steady-state allocs/cycle: %.1f", e.Name(), n)
	if n > cycleAllocBudget {
		t.Errorf("%s allocates %.1f per cycle, budget %d", e.Name(), n, cycleAllocBudget)
	}
	if e.Active() == 0 {
		t.Fatal("streams finished during measurement; grow the rig")
	}
}

// TestSRSteadyStateCycleAllocBudget pins the Streaming RAID engine's
// healthy steady-state cycle to the budget.
func TestSRSteadyStateCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 2, 60, layout.DedicatedParity)
	cfg := r.config()
	e, err := NewStreamingRAID(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 2, nil)
}

// TestNCSteadyStateCycleAllocBudget pins the Non-clustered engine's
// normal-mode cycle to the budget.
func TestNCSteadyStateCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 2, 60, layout.DedicatedParity)
	cfg := r.config()
	e, err := NewNonClustered(cfg, SimpleSwitchover, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 2, nil)
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
	checkCycleAllocBudget(t, e, r, 4, nil)
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
	checkCycleAllocBudget(t, e, r, 4, nil)
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
	checkCycleAllocBudget(t, e, r, 2, nil)
}

// TestSRDegradedCycleAllocBudget pins a degraded Streaming RAID cycle to
// the same budget: with a data drive failed, every measured Step reads
// around it and reconstructs, and the failed read, the made track and
// its Ref header allocate nothing.
func TestSRDegradedCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 2, 60, layout.DedicatedParity)
	e, err := NewStreamingRAID(r.config())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.FailDisk(1); err != nil {
		t.Fatal(err)
	}
	checkCycleAllocBudget(t, e, r, 2, func(rep *sched.CycleReport) {
		if rep.Reconstructions == 0 {
			t.Fatalf("cycle %d reconstructed nothing", rep.Cycle)
		}
	})
}

// TestNCDegradedCycleAllocBudget pins a degraded Non-clustered cycle to
// the same budget under the alternate policy: with cluster 0's third
// data drive failed, a stream's pass over the cluster folds its first two
// tracks into an XOR accumulator and reconstructs the third on the
// failed drive's cycle, all out of the stream's window and the arena.
func TestNCDegradedCycleAllocBudget(t *testing.T) {
	r := newRig(t, 10, 5, 2, 60, layout.DedicatedParity)
	e, err := NewNonClustered(r.config(), AlternateSwitchover, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	reconstructions := 0
	checkCycleAllocBudget(t, e, r, 2, func(rep *sched.CycleReport) {
		reconstructions += rep.Reconstructions
	})
	if reconstructions == 0 {
		t.Fatal("no measured cycle reconstructed")
	}
}
